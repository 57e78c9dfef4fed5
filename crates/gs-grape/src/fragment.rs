//! Fragments: the per-worker piece of an edge-cut-partitioned graph.
//!
//! A fragment owns its *inner* vertices and all edges sourced at them;
//! destination vertices owned elsewhere appear as *outer* mirrors. Local
//! dense ids place inner vertices first (`0..inner_count`) and outer
//! mirrors after, so per-vertex state is a flat array — the layout GRAPE's
//! "highly optimized core operators for fragment management" rely on.
//! The global→local map is a dense array over the global id space
//! (`global_n × 4` bytes per fragment), so construction and every message
//! lookup are array indexing with no hashing.
//!
//! Topology is held as a [`TopologyLayout`] (plain, sorted, or compressed
//! CSR — see [`gs_graph::layout`]); algorithms traverse through the
//! layout-agnostic [`Fragment::for_each_out`] / [`Fragment::for_each_in`]
//! so every layout produces bit-identical results. The parallel
//! per-fragment build uses a work-stealing task queue: with more fragments
//! than cores (or skewed fragment sizes), idle workers steal pending
//! builds instead of waiting on stragglers.

use gs_graph::csr::CsrBuilder;
use gs_graph::layout::{LayoutKind, TopologyLayout};
use gs_graph::partition::{EdgeCutPartitioner, PartitionId};
use gs_graph::{EId, VId};
use gs_sanitizer::TrackedMutex;
use gs_telemetry::counter;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `g2l` entry of a global id that is not on the fragment.
const ABSENT: u32 = u32::MAX;
/// `g2l` mark of an outer mirror while the build has not yet numbered it.
const MIRROR: u32 = u32::MAX - 1;

/// One fragment of a partitioned (optionally weighted) graph.
pub struct Fragment {
    pub id: PartitionId,
    pub total_fragments: usize,
    /// Total vertex count of the global graph.
    pub global_n: usize,
    /// Partitioner used to route messages to owners.
    pub router: EdgeCutPartitioner,
    /// local id → global id (inner first, then outer).
    pub l2g: Vec<VId>,
    /// global id → local id, dense over the whole global id space
    /// ([`ABSENT`] where the vertex is not on this fragment): one array
    /// index per lookup, for `global_n × 4` bytes.
    g2l: Vec<u32>,
    /// Number of inner (owned) vertices.
    pub inner_count: usize,
    /// Local adjacency over local ids (edges sourced at inner vertices),
    /// in the fragment's chosen layout.
    pub out: TopologyLayout,
    /// Local reverse adjacency (in-edges of local vertices, from local
    /// sources) — the CSC transpose used by pull-mode traversal.
    pub inn: TopologyLayout,
    /// Optional edge weights parallel to `out` edge ids.
    pub weights: Option<Vec<f64>>,
}

/// One fragment's routed share of a global edge list: the edges sourced at
/// the vertices it owns, in routing order, with their weights when the
/// graph is weighted. Edge ids follow this order.
struct Share {
    edges: Vec<(VId, VId)>,
    weights: Option<Vec<f64>>,
}

/// A global edge list being routed to `k` fragments: each pushed edge goes
/// to the share of its source's owner, in push order.
pub(crate) struct Shares {
    router: EdgeCutPartitioner,
    shares: Vec<Share>,
}

impl Shares {
    /// Empty shares for `k` fragments, share `i` with room for
    /// `capacity(i)` edges.
    pub(crate) fn new(k: usize, weighted: bool, capacity: impl Fn(usize) -> usize) -> Self {
        Shares {
            router: EdgeCutPartitioner::new(k),
            shares: (0..k)
                .map(|i| Share {
                    edges: Vec::with_capacity(capacity(i)),
                    weights: weighted.then(|| Vec::with_capacity(capacity(i))),
                })
                .collect(),
        }
    }

    /// Routes one edge; `weight` is kept only if the shares are weighted.
    #[inline]
    pub(crate) fn push(&mut self, edge: (VId, VId), weight: f64) {
        let share = &mut self.shares[self.router.owner(edge.0).index()];
        share.edges.push(edge);
        if let Some(ws) = &mut share.weights {
            ws.push(weight);
        }
    }
}

impl Fragment {
    /// Partitions a global edge list into `k` fragments (plain CSR layout).
    pub fn partition_edges(n: usize, edges: &[(VId, VId)], k: usize) -> Vec<Fragment> {
        Self::partition_weighted(n, edges, None, k)
    }

    /// Partitions with optional per-edge weights (plain CSR layout).
    pub fn partition_weighted(
        n: usize,
        edges: &[(VId, VId)],
        weights: Option<&[f64]>,
        k: usize,
    ) -> Vec<Fragment> {
        Self::partition_weighted_with_layout(n, edges, weights, k, LayoutKind::Csr)
    }

    /// Partitions into `k` fragments materialised in the given layout.
    pub fn partition_edges_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        k: usize,
        layout: LayoutKind,
    ) -> Vec<Fragment> {
        Self::partition_weighted_with_layout(n, edges, None, k, layout)
    }

    /// Partitions with optional per-edge weights (parallel to `edges`),
    /// materialising topology in `layout`.
    ///
    /// Routes every edge (and its weight) to its source's owner in global
    /// order, into shares sized exactly by a counting pass, then runs the
    /// same per-fragment build as the GRIN loader.
    pub fn partition_weighted_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        weights: Option<&[f64]>,
        k: usize,
        layout: LayoutKind,
    ) -> Vec<Fragment> {
        let router = EdgeCutPartitioner::new(k);
        let mut sizes = vec![0usize; k];
        for &(s, _) in edges {
            sizes[router.owner(s).index()] += 1;
        }
        let mut shares = Shares::new(k, weights.is_some(), |i| sizes[i]);
        for (i, &edge) in edges.iter().enumerate() {
            shares.push(edge, weights.map_or(0.0, |ws| ws[i]));
        }
        Self::build_all(n, shares, layout)
    }

    /// Builds one fragment per routed share.
    ///
    /// The builds run on a work-stealing pool of `min(k, cores)` threads —
    /// fragments are tasks, so a straggler fragment does not serialise the
    /// tail.
    pub(crate) fn build_all(n: usize, shares: Shares, layout: LayoutKind) -> Vec<Fragment> {
        let Shares { router, shares } = shares;
        let k = shares.len();
        let parts: Vec<TrackedMutex<Option<Share>>> = shares
            .into_iter()
            .map(|share| TrackedMutex::new("grape.fragment.part", Some(share)))
            .collect();
        let slots: Vec<TrackedMutex<Option<Fragment>>> = (0..k)
            .map(|_| TrackedMutex::new("grape.fragment.slot", None))
            .collect();
        let next = AtomicUsize::new(0);
        let threads = k.min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        );
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                let parts = &parts;
                let slots = &slots;
                let next = &next;
                scope.spawn(move |_| {
                    let mut claimed = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= k {
                            break;
                        }
                        // beyond the first claim this thread is stealing
                        // work another (busy) worker would otherwise own
                        claimed += 1;
                        if claimed > 1 {
                            counter!("grape.steal.build_stolen");
                        }
                        let share = parts[i].lock().take().expect("task claimed once");
                        let frag = Self::build(PartitionId(i as u32), router, n, share, layout);
                        *slots[i].lock() = Some(frag);
                    }
                });
            }
        })
        .expect("fragment build scope");
        counter!("grape.steal.build_tasks"; k as u64);
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("fragment built"))
            .collect()
    }

    /// Builds one fragment from its routed share in O(n + edges) array
    /// work: inner vertices take local ids in ascending global order,
    /// outer mirrors (marked in `g2l` while scanning the share) follow in
    /// ascending global order, and the out-CSR is built straight from the
    /// share through `g2l`, so edge `i` of the share gets edge id `i` and
    /// the share's weights are already in edge-id order.
    fn build(
        id: PartitionId,
        router: EdgeCutPartitioner,
        n: usize,
        share: Share,
        layout: LayoutKind,
    ) -> Fragment {
        assert!(n < MIRROR as usize, "global id space exceeds u32 local ids");
        let Share { edges, weights } = share;
        let mut g2l = vec![ABSENT; n];
        let mut l2g: Vec<VId> = Vec::new();
        for (g, slot) in g2l.iter_mut().enumerate() {
            if router.owner(VId(g as u64)) == id {
                *slot = l2g.len() as u32;
                l2g.push(VId(g as u64));
            }
        }
        let inner_count = l2g.len();
        for &(_, d) in &edges {
            let slot = &mut g2l[d.index()];
            if *slot == ABSENT {
                *slot = MIRROR;
            }
        }
        for (g, slot) in g2l.iter_mut().enumerate() {
            if *slot == MIRROR {
                *slot = l2g.len() as u32;
                l2g.push(VId(g as u64));
            }
        }
        let local = |g: VId| VId(g2l[g.index()] as u64);
        let mut b = CsrBuilder::new(l2g.len());
        for &(s, _) in &edges {
            b.add_degree(local(s));
        }
        b.finish_degrees();
        for &(s, d) in &edges {
            b.push_edge(local(s), local(d));
        }
        let out_csr = b.build();
        let inn_csr = out_csr.transpose();
        Fragment {
            id,
            total_fragments: router.partition_count(),
            global_n: n,
            router,
            l2g,
            g2l,
            inner_count,
            out: TopologyLayout::build(layout, out_csr),
            inn: TopologyLayout::build(layout, inn_csr),
            weights,
        }
    }

    /// Which topology layout this fragment materialised.
    #[inline]
    pub fn layout(&self) -> LayoutKind {
        self.out.kind()
    }

    /// Local id of a global vertex, if present on this fragment.
    #[inline]
    pub fn local(&self, g: VId) -> Option<u32> {
        match self.g2l.get(g.index()) {
            Some(&l) if l != ABSENT => Some(l),
            _ => None,
        }
    }

    /// Global id of a local vertex.
    #[inline]
    pub fn global(&self, l: u32) -> VId {
        self.l2g[l as usize]
    }

    /// Whether a local id is an inner (owned) vertex.
    #[inline]
    pub fn is_inner(&self, l: u32) -> bool {
        (l as usize) < self.inner_count
    }

    /// Owner fragment of a global vertex.
    #[inline]
    pub fn owner(&self, g: VId) -> PartitionId {
        self.router.owner(g)
    }

    /// Local vertex count (inner + outer).
    #[inline]
    pub fn local_count(&self) -> usize {
        self.l2g.len()
    }

    /// Out-degree of a local vertex (works on every layout).
    #[inline]
    pub fn out_degree(&self, l: u32) -> usize {
        self.out.degree(VId(l as u64))
    }

    /// In-degree of a local vertex, counting in-edges from local sources.
    #[inline]
    pub fn in_degree(&self, l: u32) -> usize {
        self.inn.degree(VId(l as u64))
    }

    /// Visits every out-edge `(neighbor local id, edge id)` of a local
    /// vertex. This is the layout-agnostic traversal primitive: identical
    /// visit order on every layout, so algorithm results are
    /// layout-independent.
    #[inline]
    pub fn for_each_out<F: FnMut(VId, EId)>(&self, l: u32, f: F) {
        self.out.for_each_adj(VId(l as u64), f);
    }

    /// Visits every in-edge `(source local id, edge id)` of a local vertex
    /// (sources are local; in-edges from remote fragments live on those
    /// fragments). Pull-mode traversal scans this.
    #[inline]
    pub fn for_each_in<F: FnMut(VId, EId)>(&self, l: u32, f: F) {
        self.inn.for_each_adj(VId(l as u64), f);
    }

    /// Visits the in-edge *sources* (local ids, no edge ids) of a local
    /// vertex until `f` returns `false` — pull-mode BFS's early-exit scan.
    #[inline]
    pub fn for_each_in_until<F: FnMut(VId) -> bool>(&self, l: u32, f: F) {
        self.inn.scan_targets(VId(l as u64), f);
    }

    /// Out-neighbors (local ids) of a local vertex, as a zero-copy slice.
    ///
    /// Only available on slice-backed layouts; compressed fragments must
    /// use [`Fragment::for_each_out`].
    #[inline]
    pub fn out_neighbors(&self, l: u32) -> &[VId] {
        self.out
            .adj_slices(VId(l as u64))
            .expect("out_neighbors: compressed layout has no slices; use for_each_out")
            .0
    }

    /// Edge ids parallel to [`Fragment::out_neighbors`] (index `weights`).
    #[inline]
    pub fn out_edge_ids(&self, l: u32) -> &[EId] {
        self.out
            .adj_slices(VId(l as u64))
            .expect("out_edge_ids: compressed layout has no slices; use for_each_out")
            .1
    }

    /// Local edge count.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Vec<(VId, VId)> {
        (0..n as u64)
            .map(|i| (VId(i), VId((i + 1) % n as u64)))
            .collect()
    }

    #[test]
    fn fragments_cover_graph() {
        let edges = ring(100);
        let frags = Fragment::partition_edges(100, &edges, 4);
        let inner_total: usize = frags.iter().map(|f| f.inner_count).sum();
        let edge_total: usize = frags.iter().map(|f| f.edge_count()).sum();
        assert_eq!(inner_total, 100);
        assert_eq!(edge_total, 100);
    }

    /// A multigraph over 40 vertices: a ring over 0..30 plus parallel
    /// edges, self-loops and a hub; vertices 30..40 have no edges.
    fn multigraph() -> (usize, Vec<(VId, VId)>) {
        let mut edges = ring(30);
        let extra = [
            (0, 1),
            (0, 1),
            (0, 1),
            (5, 5),
            (7, 7),
            (7, 7),
            (12, 3),
            (3, 12),
        ];
        for (s, d) in extra {
            edges.push((VId(s), VId(d)));
        }
        for d in (0..30).rev() {
            edges.push((VId(20), VId(d)));
            edges.push((VId(20), VId(d % 4)));
        }
        (40, edges)
    }

    /// `(n, edges, fragment counts)`: one input and the `k`s to split it by.
    type Case = (usize, Vec<(VId, VId)>, Vec<usize>);

    /// The cases shared by the tests below.
    fn cases() -> Vec<Case> {
        let (n, multi) = multigraph();
        vec![(50, ring(50), vec![3]), (n, multi, vec![1, 3, 64])]
    }

    #[test]
    fn local_global_round_trip() {
        for (n, edges, ks) in cases() {
            for k in ks {
                let frags = Fragment::partition_edges(n, &edges, k);
                for f in &frags {
                    for l in 0..f.local_count() as u32 {
                        let g = f.global(l);
                        assert_eq!(f.local(g), Some(l));
                        if f.is_inner(l) {
                            assert_eq!(f.owner(g), f.id);
                        }
                    }
                    // ids not on the fragment, and ids past the global id
                    // space, have no local id
                    for g in 0..n as u64 + 3 {
                        if !f.l2g.contains(&VId(g)) {
                            assert_eq!(f.local(VId(g)), None, "k={k} frag {:?} g={g}", f.id);
                        }
                    }
                    assert_eq!(f.local(VId(u64::MAX)), None);
                }
            }
        }
    }

    #[test]
    fn edges_point_to_valid_locals() {
        let edges = ring(64);
        let frags = Fragment::partition_edges(64, &edges, 4);
        for f in &frags {
            for l in 0..f.inner_count as u32 {
                for &nbr in f.out_neighbors(l) {
                    assert!((nbr.index()) < f.local_count());
                }
            }
        }
    }

    #[test]
    fn weights_follow_edges() {
        let edges = vec![(VId(0), VId(1)), (VId(1), VId(2)), (VId(2), VId(0))];
        let weights = vec![0.1, 0.2, 0.3];
        let frags = Fragment::partition_weighted(3, &edges, Some(&weights), 2);
        let mut seen: Vec<f64> = Vec::new();
        for f in &frags {
            if let Some(ws) = &f.weights {
                for l in 0..f.inner_count as u32 {
                    for (&nbr, &eid) in f.out_neighbors(l).iter().zip(f.out_edge_ids(l)) {
                        let _ = nbr;
                        seen.push(ws[eid.index()]);
                    }
                }
            }
        }
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(seen, weights);
    }

    #[test]
    fn weights_align_exactly_even_with_parallel_edges() {
        // duplicate (0,1) edges with distinct weights: alignment must follow
        // the global edge order, not a multiset match
        let edges = vec![
            (VId(0), VId(1)),
            (VId(0), VId(1)),
            (VId(1), VId(0)),
            (VId(2), VId(1)),
        ];
        let weights = vec![10.0, 20.0, 30.0, 40.0];
        let frags = Fragment::partition_weighted(3, &edges, Some(&weights), 2);
        let mut recovered: Vec<(u64, u64, f64)> = Vec::new();
        for f in &frags {
            let ws = f.weights.as_ref().unwrap();
            for l in 0..f.inner_count as u32 {
                for (&nbr, &eid) in f.out_neighbors(l).iter().zip(f.out_edge_ids(l)) {
                    recovered.push((f.global(l).0, f.global(nbr.0 as u32).0, ws[eid.index()]));
                }
            }
        }
        recovered.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            recovered,
            vec![(0, 1, 10.0), (0, 1, 20.0), (1, 0, 30.0), (2, 1, 40.0)]
        );
    }

    #[test]
    fn single_fragment_has_everything_inner() {
        let edges = ring(10);
        let frags = Fragment::partition_edges(10, &edges, 1);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].inner_count, 10);
        assert_eq!(frags[0].local_count(), 10);
    }

    #[test]
    fn layouts_produce_identical_fragments() {
        for (n, edges, ks) in cases() {
            for k in ks {
                assert_layouts_agree(n, &edges, k);
            }
        }
    }

    fn assert_layouts_agree(n: usize, edges: &[(VId, VId)], k: usize) {
        let base = Fragment::partition_edges(n, edges, k);
        assert_eq!(
            base.iter().map(|f| f.edge_count()).sum::<usize>(),
            edges.len()
        );
        // edge id i is the i-th input edge sourced on the fragment, and
        // every list is sorted by neighbour
        for f in &base {
            let share: Vec<(VId, VId)> = edges
                .iter()
                .copied()
                .filter(|&(s, _)| f.owner(s) == f.id)
                .collect();
            for l in 0..f.local_count() as u32 {
                let mut prev = VId(0);
                f.for_each_out(l, |w, e| {
                    assert_eq!(share[e.index()], (f.global(l), f.global(w.0 as u32)));
                    assert!(prev <= w);
                    prev = w;
                });
            }
        }
        for layout in [LayoutKind::SortedCsr, LayoutKind::CompressedCsr] {
            let frags = Fragment::partition_edges_with_layout(n, edges, k, layout);
            for (a, b) in base.iter().zip(&frags) {
                assert_eq!(b.layout(), layout);
                assert_eq!(a.inner_count, b.inner_count);
                assert_eq!(a.l2g, b.l2g);
                for l in 0..a.local_count() as u32 {
                    assert_eq!(a.out_degree(l), b.out_degree(l));
                    let mut want = Vec::new();
                    a.for_each_out(l, |w, e| want.push((w, e)));
                    let mut got = Vec::new();
                    b.for_each_out(l, |w, e| got.push((w, e)));
                    assert_eq!(want, got, "layout {layout} out-adj of {l}");
                    let mut want_in = Vec::new();
                    a.for_each_in(l, |w, e| want_in.push((w, e)));
                    let mut got_in = Vec::new();
                    b.for_each_in(l, |w, e| got_in.push((w, e)));
                    assert_eq!(want_in, got_in, "layout {layout} in-adj of {l}");
                }
            }
        }
    }

    #[test]
    fn many_fragments_on_few_threads_steal_work() {
        // more fragments than any realistic core count: exercises the
        // work-stealing claim loop
        let edges = ring(256);
        let frags = Fragment::partition_edges(256, &edges, 64);
        assert_eq!(frags.len(), 64);
        let inner_total: usize = frags.iter().map(|f| f.inner_count).sum();
        assert_eq!(inner_total, 256);
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(f.id.index(), i);
        }
    }
}
