//! `gs-bench chaos` — run a seeded fault-injection corpus and assert
//! chaos equivalence: every workload must finish under injected faults
//! with the same answer a fault-free run produces (byte-identical for the
//! integer algorithms, and `to_bits`-identical for PageRank, whose exchange
//! blocks fold in sender order and whose dangling-mass reduction is
//! canonical), or degrade along its documented ladder (retries, skipped
//! batches) without losing accounting.
//!
//! Mirrors `irlint` and `sanitize` one robustness layer up: the table
//! lists each workload, the faults the plan actually injected, and the
//! equivalence verdict; `--deny` turns any failed verdict into a non-zero
//! exit (the CI bar).
//!
//! Only meaningful when built with `--features chaos`; a pass-through
//! build prints a note and exits 0 so the subcommand is safe to script.

use crate::util::TablePrinter;
use gs_chaos::{ChaosStats, FaultPlan, RetryPolicy};
use gs_grape::{GrapeEngine, RecoveryConfig};
use gs_graph::VId;
use gs_ir::Value;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One chaos workload: the faults that fired and the equivalence verdict.
pub struct ChaosResult {
    pub workload: &'static str,
    pub stats: ChaosStats,
    /// `Ok` carries the equivalence summary; `Err` the violation.
    pub outcome: Result<&'static str, String>,
}

/// A seeded random digraph shared by the BSP workloads.
fn random_edges(seed: u64, n: usize, degree: usize) -> Vec<(VId, VId)> {
    let mut rng = rand_pcg::Pcg64Mcg::new(seed as u128);
    (0..n * degree)
        .map(|_| {
            (
                VId(rng.gen_range(0..n as u64)),
                VId(rng.gen_range(0..n as u64)),
            )
        })
        .collect()
}

/// How many ranks differ from the fault-free run in their bits (a length
/// mismatch counts every missing or extra rank).
fn rank_bit_mismatches(want: &[f64], got: &[f64]) -> usize {
    let differ = want
        .iter()
        .zip(got)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    differ + want.len().abs_diff(got.len())
}

/// PageRank under scheduled worker kills: two workers die at different
/// supersteps; checkpoint/restart must reproduce the fault-free ranks bit
/// for bit.
fn pagerank_kills(seed: u64) -> ChaosResult {
    let n = 300;
    let edges = random_edges(seed, n, 5);
    let want = gs_grape::algorithms::pagerank(&GrapeEngine::from_edges(n, &edges, 4), 0.85, 12);
    let plan = FaultPlan::new(seed ^ 0x4b11)
        .kill_worker(1, 4)
        .kill_worker(3, 8);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4)
            .with_recovery(RecoveryConfig::default().interval(3));
        gs_grape::algorithms::pagerank(&engine, 0.85, 12)
    });
    let differing = rank_bit_mismatches(&want, &got);
    let outcome = if stats.worker_kills != 2 {
        Err(format!(
            "expected 2 worker kills, saw {}",
            stats.worker_kills
        ))
    } else if differing > 0 {
        Err(format!(
            "{differing} ranks differ in their bits from the fault-free run"
        ))
    } else {
        Ok("ranks bit-identical to the fault-free run")
    };
    ChaosResult {
        workload: "pagerank-kills",
        stats,
        outcome,
    }
}

/// PageRank under probabilistic message drop/duplication/delay. The
/// exchange carries one combined share per outer vertex, so a lost or
/// doubled message would move a whole vertex's sum: duplicates must be
/// filtered, delays filed under their round, and drops must abort and
/// restart from a checkpoint. Ranks stay bit-identical to the fault-free
/// run.
fn pagerank_msgfaults(seed: u64) -> ChaosResult {
    let n = 300;
    let edges = random_edges(seed.wrapping_add(4), n, 5);
    let want = gs_grape::algorithms::pagerank(&GrapeEngine::from_edges(n, &edges, 4), 0.85, 12);
    let plan = FaultPlan::new(seed ^ 0x9a6e)
        .message_faults(0.03, 0.03, 0.03)
        .budget(12);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(3)
                .detect_timeout(Duration::from_millis(250)),
        );
        gs_grape::algorithms::pagerank(&engine, 0.85, 12)
    });
    let differing = rank_bit_mismatches(&want, &got);
    let outcome = if stats.msgs_dropped + stats.msgs_duplicated + stats.msgs_delayed == 0 {
        Err("plan injected no message faults".to_string())
    } else if differing > 0 {
        Err(format!(
            "{differing} ranks differ in their bits from the fault-free run"
        ))
    } else {
        Ok("ranks bit-identical to the fault-free run")
    };
    ChaosResult {
        workload: "pagerank-msgfaults",
        stats,
        outcome,
    }
}

/// WCC under probabilistic message drop/duplication/delay: the integer
/// label all-reduce is order-insensitive, so recovery must reproduce the
/// fault-free labels byte-identically.
fn wcc_msgfaults(seed: u64) -> ChaosResult {
    let n = 240;
    let mut edges = random_edges(seed.wrapping_add(1), n, 4);
    let back: Vec<(VId, VId)> = edges.iter().map(|&(a, b)| (b, a)).collect();
    edges.extend(back);
    let want = gs_grape::algorithms::wcc(&GrapeEngine::from_edges(n, &edges, 4));
    let plan = FaultPlan::new(seed ^ 0x3c3c)
        .message_faults(0.03, 0.03, 0.03)
        .budget(12);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(2)
                .detect_timeout(Duration::from_millis(250)),
        );
        gs_grape::algorithms::wcc(&engine)
    });
    let outcome = if stats.msgs_dropped + stats.msgs_duplicated + stats.msgs_delayed == 0 {
        Err("plan injected no message faults".to_string())
    } else if got != want {
        Err("labels differ from the fault-free run".to_string())
    } else {
        Ok("labels byte-identical to the fault-free run")
    };
    ChaosResult {
        workload: "wcc-msgfaults",
        stats,
        outcome,
    }
}

/// BFS under a mixed plan — a scheduled worker kill *and* probabilistic
/// message faults in the same run; distances must stay byte-identical.
fn bfs_mixed(seed: u64) -> ChaosResult {
    let n = 260;
    let edges = random_edges(seed.wrapping_add(2), n, 5);
    let want = gs_grape::algorithms::bfs(&GrapeEngine::from_edges(n, &edges, 4), VId(0));
    let plan = FaultPlan::new(seed ^ 0xbf5)
        .kill_worker(2, 2)
        .message_faults(0.02, 0.02, 0.02)
        .budget(8);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(2)
                .detect_timeout(Duration::from_millis(250)),
        );
        gs_grape::algorithms::bfs(&engine, VId(0))
    });
    let outcome = if stats.worker_kills == 0 {
        Err("the scheduled worker kill never fired".to_string())
    } else if got != want {
        Err("distances differ from the fault-free run".to_string())
    } else {
        Ok("distances byte-identical to the fault-free run")
    };
    ChaosResult {
        workload: "bfs-mixed",
        stats,
        outcome,
    }
}

/// The query service against a slow shard and a shard that dies mid-run:
/// deadlines, retries, and dead-shard rerouting must mask both — every
/// call still succeeds.
fn hiactor_slow_dead(seed: u64) -> ChaosResult {
    let plan = FaultPlan::new(seed ^ 0x51d)
        .slow_shard(0, Duration::from_millis(3))
        .dead_shard(1, 4);
    let (failed, stats) = gs_chaos::with_chaos(plan, || {
        let svc = gs_hiactor::QueryService::new(2).with_config(gs_hiactor::ServiceConfig {
            deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::new(4, Duration::from_millis(2)),
            ..Default::default()
        });
        svc.register_idempotent("ping", Arc::new(|_| Ok(vec![vec![Value::Int(1)]])));
        (0..32)
            .filter(|_| svc.call_sync("ping", HashMap::new()).is_err())
            .count()
    });
    let outcome = if stats.shard_deaths == 0 || stats.shard_delays == 0 {
        Err("plan injected no shard faults".to_string())
    } else if failed > 0 {
        Err(format!("{failed}/32 calls failed despite retries"))
    } else {
        Ok("all 32 calls succeeded despite shard faults")
    };
    ChaosResult {
        workload: "hiactor-slow-dead",
        stats,
        outcome,
    }
}

/// The sampling/training pipeline over a faulty store: storage-read
/// bursts exhaust the sampler's retries for some batches; the epoch must
/// finish with every batch either trained or reported as skipped.
fn learn_sampler(seed: u64) -> ChaosResult {
    let n = 150;
    let edges: Vec<(u64, u64, f64)> = random_edges(seed.wrapping_add(3), n, 6)
        .into_iter()
        .map(|(a, b)| (a.0, b.0, 1.0))
        .collect();
    let plan = FaultPlan::new(seed ^ 0x1ea2)
        .storage_faults(0.08, 4)
        .budget(2);
    let (stats_epoch, stats) = gs_chaos::with_chaos(plan, || {
        let graph = gs_chaos::ChaosGraph::new(
            gs_grin::graph::mock::MockGraph::new(n, &edges),
            "learn.sampler",
        );
        let cfg = gs_learn::PipelineConfig {
            samplers: 1,
            trainers: 2,
            batch_size: 16,
            fanouts: vec![4, 3],
            feature_dim: 8,
            hidden: 16,
            classes: 4,
            batches_per_epoch: 8,
            sampler_retries: 1,
            seed,
            ..Default::default()
        };
        let (stats, _model) =
            gs_learn::train_epoch(&graph, gs_graph::LabelId(0), gs_graph::LabelId(0), &cfg);
        stats
    });
    let outcome = if stats.storage_faults == 0 {
        Err("plan injected no storage faults".to_string())
    } else if stats_epoch.skipped == 0 {
        Err("retry exhaustion never skipped a batch".to_string())
    } else if stats_epoch.batches + stats_epoch.skipped != 8 {
        Err(format!(
            "batch accounting broke: {} trained + {} skipped != 8",
            stats_epoch.batches, stats_epoch.skipped
        ))
    } else {
        Ok("epoch finished; every batch trained or reported skipped")
    };
    ChaosResult {
        workload: "learn-sampler",
        stats,
        outcome,
    }
}

/// Runs the whole corpus; each workload installs its own exclusive fault
/// plan so injections attribute cleanly.
pub fn run_corpus(seed: u64) -> Vec<ChaosResult> {
    vec![
        pagerank_kills(seed),
        pagerank_msgfaults(seed),
        wcc_msgfaults(seed),
        bfs_mixed(seed),
        hiactor_slow_dead(seed),
        learn_sampler(seed),
    ]
}

/// Runs the corpus and prints the equivalence table. With `deny`, any
/// failed verdict makes the exit code non-zero (the CI bar).
pub fn run(deny: bool, seed: u64) -> i32 {
    if !gs_chaos::COMPILED {
        println!(
            "chaos: built without the `chaos` feature — every fault hook is a \
             no-op (rebuild with `--features chaos`)"
        );
        return 0;
    }
    let results = run_corpus(seed);
    let mut table = TablePrinter::new(&["workload", "injected", "verdict"]);
    let mut failures = 0usize;
    for r in &results {
        let verdict = match &r.outcome {
            Ok(summary) => format!("ok: {summary}"),
            Err(why) => {
                failures += 1;
                format!("FAIL: {why}")
            }
        };
        table.row(vec![r.workload.to_string(), r.stats.render(), verdict]);
    }
    table.print();
    println!(
        "chaos: {} workloads checked (seed {seed}), {failures} equivalence failures",
        results.len()
    );
    if deny && failures > 0 {
        1
    } else {
        0
    }
}
