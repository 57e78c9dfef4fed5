//! Compressed sparse row topology.
//!
//! CSR (and its transpose, CSC) is the workhorse representation for the
//! immutable Vineyard store, the static baseline in Fig. 7(c), and the
//! fragment-local topology used by GRAPE and the learning stack. The builder
//! places edges with a counting-sort pass, so construction is O(V + E); a
//! comparison sort runs only on neighbour lists pushed out of order.

use crate::ids::{EId, VId};

/// Immutable CSR adjacency: `offsets[v]..offsets[v+1]` indexes into
/// `targets` (neighbor vertex ids) and `edge_ids` (dense edge identifiers).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VId>,
    edge_ids: Vec<EId>,
}

impl Csr {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Neighbor slice of `v` (array-like GRIN access trait).
    #[inline]
    pub fn neighbors(&self, v: VId) -> &[VId] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Edge-id slice parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_ids(&self, v: VId) -> &[EId] {
        let i = v.index();
        &self.edge_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates `(neighbor, edge_id)` pairs of `v` (iterator-based GRIN
    /// access trait).
    #[inline]
    pub fn adj(&self, v: VId) -> impl Iterator<Item = (VId, EId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_ids(v).iter().copied())
    }

    /// Raw offset array (used by Graphalytics-style scan kernels).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw target array.
    #[inline]
    pub fn targets(&self) -> &[VId] {
        &self.targets
    }

    /// Membership test for an edge `v -> w`; neighbor lists are sorted by
    /// the builder, enabling O(log d) binary search (used by triangle
    /// counting / LCC and the pattern matcher). Tiny adjacency lists
    /// (below [`crate::layout::HAS_EDGE_BINARY_THRESHOLD`]) take a linear
    /// pass instead — for short lists the branchy binary search loses to a
    /// straight scan.
    pub fn has_edge(&self, v: VId, w: VId) -> bool {
        crate::layout::sorted_contains(self.neighbors(v), w)
    }

    /// Builds a CSR (and dense edge-id assignment) from an edge list.
    ///
    /// `n` is the vertex count; edges reference vertices `< n`. Edge ids are
    /// assigned in input order: the `i`-th pair of `edges` gets id `i`
    /// wherever neighbour sorting places it, so a property array parallel to
    /// `edges` can be indexed by [`EId`] directly.
    pub fn from_edges(n: usize, edges: &[(VId, VId)]) -> Csr {
        let mut b = CsrBuilder::new(n);
        for &(s, _) in edges {
            b.add_degree(s);
        }
        b.finish_degrees();
        for &(s, d) in edges {
            b.push_edge(s, d);
        }
        b.build()
    }

    /// Assembles a CSR from raw parts. `offsets` must be a monotone prefix
    /// array with `offsets[n] == targets.len() == edge_ids.len()`; callers
    /// (e.g. the cross-label transpose in Vineyard) are responsible for
    /// neighbor-sortedness if they rely on [`Csr::has_edge`].
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<VId>, edge_ids: Vec<EId>) -> Csr {
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, targets.len());
        debug_assert_eq!(targets.len(), edge_ids.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Builds the transpose (CSC if `self` is CSR): edge ids are preserved so
    /// edge properties resolved through either direction agree.
    pub fn transpose(&self) -> Csr {
        let n = self.vertex_count();
        let mut degree = vec![0u64; n];
        for &t in &self.targets {
            degree[t.index()] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![VId(0); self.targets.len()];
        let mut edge_ids = vec![EId(0); self.targets.len()];
        for v in 0..n {
            let vid = VId(v as u64);
            for (w, e) in self.adj(vid) {
                let c = &mut cursor[w.index()];
                targets[*c as usize] = vid;
                edge_ids[*c as usize] = e;
                *c += 1;
            }
        }
        // sources are visited in ascending order, so every list comes out
        // sorted by construction
        Csr {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Sorts each adjacency list by neighbor id, keeping edge ids aligned.
    /// Lists that are already sorted are left as they are; the rest are
    /// sorted through one scratch buffer.
    fn sort_neighbors(&mut self) {
        let mut pairs: Vec<(VId, EId)> = Vec::new();
        for v in 0..self.vertex_count() {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            if self.targets[lo..hi].is_sorted() {
                continue;
            }
            pairs.clear();
            pairs.extend(
                self.targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.edge_ids[lo..hi].iter().copied()),
            );
            pairs.sort_unstable_by_key(|p| p.0);
            for (i, &(t, e)) in pairs.iter().enumerate() {
                self.targets[lo + i] = t;
                self.edge_ids[lo + i] = e;
            }
        }
    }
}

/// Two-pass counting-sort CSR builder.
///
/// Usage: `add_degree` for every edge, `finish_degrees`, then `push_edge`
/// for every edge, then `build`.
#[derive(Debug)]
pub struct CsrBuilder {
    offsets: Vec<u64>,
    cursor: Vec<u64>,
    targets: Vec<VId>,
    edge_ids: Vec<EId>,
    next_eid: u64,
    phase2: bool,
}

impl CsrBuilder {
    /// Builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            cursor: Vec::new(),
            targets: Vec::new(),
            edge_ids: Vec::new(),
            next_eid: 0,
            phase2: false,
        }
    }

    /// Phase-1: count one out-edge at `src`.
    #[inline]
    pub fn add_degree(&mut self, src: VId) {
        debug_assert!(!self.phase2, "add_degree after finish_degrees");
        self.offsets[src.index() + 1] += 1;
    }

    /// Ends phase 1: prefix-sums the degree counts into offsets.
    pub fn finish_degrees(&mut self) {
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursor = self.offsets[..self.offsets.len() - 1].to_vec();
        let m = *self.offsets.last().unwrap() as usize;
        self.targets = vec![VId(0); m];
        self.edge_ids = vec![EId(0); m];
        self.phase2 = true;
    }

    /// Phase-2: place an edge; edge ids are assigned in call order.
    #[inline]
    pub fn push_edge(&mut self, src: VId, dst: VId) {
        debug_assert!(self.phase2, "push_edge before finish_degrees");
        let c = &mut self.cursor[src.index()];
        self.targets[*c as usize] = dst;
        self.edge_ids[*c as usize] = EId(self.next_eid);
        self.next_eid += 1;
        *c += 1;
    }

    /// Finalises the CSR, sorting each neighbour list by target; edge ids
    /// move with their targets, so they keep their call-order assignment.
    pub fn build(self) -> Csr {
        debug_assert!(self.phase2);
        let mut csr = Csr {
            offsets: self.offsets,
            targets: self.targets,
            edge_ids: self.edge_ids,
        };
        csr.sort_neighbors();
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated
    const SAMPLE: [(VId, VId); 4] = [
        (VId(0), VId(2)),
        (VId(0), VId(1)),
        (VId(1), VId(2)),
        (VId(2), VId(0)),
    ];

    fn sample() -> Csr {
        Csr::from_edges(4, &SAMPLE)
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = sample();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(VId(0)), 2);
        assert_eq!(g.neighbors(VId(0)), &[VId(1), VId(2)]); // sorted
        assert_eq!(g.degree(VId(3)), 0);
        assert!(g.neighbors(VId(3)).is_empty());
    }

    #[test]
    fn edge_ids_are_dense_and_aligned() {
        let g = sample();
        let mut seen: Vec<u64> = Vec::new();
        for v in 0..g.vertex_count() {
            for (w, e) in g.adj(VId(v as u64)) {
                seen.push(e.0);
                // edge id i is the i-th input pair, after neighbour sorting
                assert_eq!(SAMPLE[e.index()], (VId(v as u64), w));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn has_edge_membership() {
        let g = sample();
        assert!(g.has_edge(VId(0), VId(2)));
        assert!(!g.has_edge(VId(2), VId(1)));
    }

    #[test]
    fn transpose_preserves_edges() {
        let g = sample();
        let t = g.transpose();
        assert_eq!(t.edge_count(), g.edge_count());
        // each edge (s,d,e) in g appears as (d,s,e) in t
        for v in 0..g.vertex_count() {
            for (w, e) in g.adj(VId(v as u64)) {
                let found = t.adj(w).any(|(x, f)| x == VId(v as u64) && f == e);
                assert!(found, "missing transposed edge {v}->{w:?}");
            }
        }
        // double transpose equals original
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_and_parallel_edges_kept() {
        let g = Csr::from_edges(2, &[(VId(0), VId(0)), (VId(0), VId(1)), (VId(0), VId(1))]);
        assert_eq!(g.degree(VId(0)), 3);
        assert_eq!(g.neighbors(VId(0)), &[VId(0), VId(1), VId(1)]);
    }
}
