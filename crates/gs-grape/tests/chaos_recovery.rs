//! Chaos: checkpoint/restart recovery under injected worker kills and
//! message faults converges to the fault-free result.
//!
//! This lives in its own test binary because the fault plan is
//! process-global: while one of these tests has a plan installed, an
//! unarmed GRAPE run from any other test in the process would take its
//! faults and wait forever for a dropped block. Fault-free reference runs
//! go through `with_chaos` with an empty plan, which takes the same
//! exclusive gate.
#![cfg(feature = "chaos")]

use gs_chaos::{with_chaos, FaultPlan};
use gs_grape::algorithms::wcc;
use gs_grape::{GrapeEngine, RecoveryConfig};
use gs_graph::VId;
use std::time::Duration;

fn ring_edges(n: u64) -> Vec<(VId, VId)> {
    (0..n)
        .flat_map(|i| [(VId(i), VId((i + 1) % n)), (VId((i + 1) % n), VId(i))])
        .collect()
}

/// Scheduled worker kills at different supersteps; the run restarts from
/// checkpoints and converges to the fault-free result.
#[test]
fn wcc_survives_worker_kills_byte_identically() {
    let edges = ring_edges(40);
    let (plain, _) = with_chaos(FaultPlan::new(0), || {
        wcc(&GrapeEngine::from_edges(40, &edges, 3))
    });
    let plan = FaultPlan::new(77).kill_worker(1, 3).kill_worker(2, 7);
    let (survived, stats) = with_chaos(plan, || {
        wcc(&GrapeEngine::from_edges(40, &edges, 3)
            .with_recovery(RecoveryConfig::default().interval(2)))
    });
    assert_eq!(stats.worker_kills, 2, "both scheduled kills fired");
    assert_eq!(plain, survived, "WCC under kills must be byte-identical");
}

/// Message drop/duplication/delay on the exchange; duplicates and delays
/// are absorbed in-round, drops abort the attempt and the restart
/// converges to the exact fault-free answer.
#[test]
fn pregel_survives_message_faults() {
    let edges = ring_edges(32);
    let (plain, _) = with_chaos(FaultPlan::new(0), || {
        wcc(&GrapeEngine::from_edges(32, &edges, 4))
    });
    let plan = FaultPlan::new(1234)
        .message_faults(0.05, 0.05, 0.05)
        .budget(12);
    let (survived, stats) = with_chaos(plan, || {
        wcc(&GrapeEngine::from_edges(32, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(2)
                .detect_timeout(Duration::from_millis(150)),
        ))
    });
    assert!(stats.total() > 0, "plan must actually inject");
    assert_eq!(plain, survived);
}
