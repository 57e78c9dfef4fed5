//! Distributed PageRank on GRAPE.
//!
//! Each round: every fragment sums the rank shares of its out-edges into a
//! dense per-local-id array, sends each mirror's sum to the mirror's owner
//! as one message, redistributes global dangling mass (an f64 all-reduce),
//! and adds the received sums to its inner vertices. Fixed iteration count
//! per Graphalytics.

use crate::engine::{ClusterAborted, CommHandle, GrapeEngine};
use crate::fragment::Fragment;
use crate::messages::OutBuffers;
use crate::recover::{checkpoint, checkpoint_due, CheckpointStore};

/// One PageRank iteration over a fragment: accumulate shares, send one
/// combined share per outer vertex, all-reduce the dangling mass,
/// exchange, and recombine. `acc` holds one slot per local id.
fn pagerank_step(
    frag: &Fragment,
    comm: &CommHandle,
    n: usize,
    damping: f64,
    rank: &mut [f64],
    acc: &mut [f64],
    out: &mut OutBuffers,
) -> Result<(), ClusterAborted> {
    let inner = frag.inner_count;
    acc.iter_mut().for_each(|x| *x = 0.0);
    // accumulate shares along out edges, local ids only
    let mut dangling_local = 0.0;
    for l in 0..inner as u32 {
        let deg = frag.out_degree(l);
        if deg == 0 {
            dangling_local += rank[l as usize];
            continue;
        }
        let share = rank[l as usize] / deg as f64;
        frag.for_each_out(l, |nbr, _| acc[nbr.index()] += share);
    }
    // every mirror is some local edge's target: one sum each, to its owner
    for (l, &sum) in acc.iter().enumerate().skip(inner) {
        let g = frag.global(l as u32);
        out.send(frag.owner(g).index(), g, sum);
    }
    let dangling = comm.try_allreduce_f64(dangling_local)?;
    let (blocks, _) = comm.try_exchange(out)?;
    for b in &blocks {
        b.for_each::<f64>(|g, share| {
            let l = frag.local(g).expect("routed to owner") as usize;
            acc[l] += share;
        });
    }
    let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
    for l in 0..inner {
        rank[l] = base + damping * acc[l];
    }
    Ok(())
}

/// Runs `iters` PageRank iterations with the given damping factor; returns
/// ranks indexed by global id (summing to ~1). With
/// [`GrapeEngine::with_recovery`] armed, the run checkpoints its ranks
/// every `interval` iterations, and a restarted attempt resumes from the
/// last committed checkpoint. The global dangling-mass reduction folds in
/// a canonical order, so a faulted run reproduces the uninterrupted ranks
/// bit-for-bit.
pub fn pagerank(engine: &GrapeEngine, damping: f64, iters: usize) -> Vec<f64> {
    pagerank_from(engine, damping, iters, &CheckpointStore::new())
}

/// The PageRank loop, resuming from `store`'s committed checkpoint (an
/// empty store starts from uniform ranks). The store may outlive the
/// engine, modelling a checkpoint that survives a process replacement.
pub(crate) fn pagerank_from(
    engine: &GrapeEngine,
    damping: f64,
    iters: usize,
    store: &CheckpointStore<Vec<f64>>,
) -> Vec<f64> {
    let n = engine.global_n();
    engine.run(|frag, comm| {
        let inner = frag.inner_count;
        let idx = frag.id.index();
        let (start, mut rank) = match store.restore(idx) {
            Some((step, ranks)) => (step + 1, ranks),
            None => (0, vec![1.0 / n as f64; inner]),
        };
        let mut acc = vec![0.0f64; frag.local_count()];
        let mut out = OutBuffers::new(comm.workers);
        for step in start..iters {
            gs_chaos::worker_kill_point(comm.my_id, step);
            pagerank_step(frag, comm, n, damping, &mut rank, &mut acc, &mut out)?;
            if checkpoint_due(engine, step, iters) {
                checkpoint(comm, store, idx, step, rank.clone())?;
            }
        }
        Ok((0..inner as u32)
            .map(|l| (frag.global(l), rank[l as usize]))
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference;
    use gs_graph::VId;

    fn diamond_edges() -> Vec<(VId, VId)> {
        vec![
            (VId(0), VId(1)),
            (VId(0), VId(2)),
            (VId(1), VId(3)),
            (VId(2), VId(3)),
            (VId(3), VId(0)),
        ]
    }

    #[test]
    fn matches_reference_on_diamond() {
        let edges = diamond_edges();
        for k in 1..=4 {
            let engine = GrapeEngine::from_edges(4, &edges, k);
            let got = pagerank(&engine, 0.85, 30);
            let want = reference::pagerank(4, &edges, 0.85, 30);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "k={k}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn handles_dangling_vertices() {
        // vertex 2 has no out-edges
        let edges = vec![(VId(0), VId(1)), (VId(1), VId(2))];
        let engine = GrapeEngine::from_edges(3, &edges, 2);
        let got = pagerank(&engine, 0.85, 40);
        let want = reference::pagerank(3, &edges, 0.85, 40);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        let total: f64 = got.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conserved: {total}");
    }

    #[test]
    fn matches_reference_on_random_graph() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(31);
        let n = 300;
        let edges: Vec<(VId, VId)> = (0..1500)
            .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
            .collect();
        let want = reference::pagerank(n as usize, &edges, 0.85, 20);
        for k in 1..=4 {
            let engine = GrapeEngine::from_edges(n as usize, &edges, k);
            let got = pagerank(&engine, 0.85, 20);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "k={k}: {a} vs {b}");
            }
        }
    }
}
