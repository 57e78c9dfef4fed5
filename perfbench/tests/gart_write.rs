//! A small run of the write workload passes its output checks, and its
//! pinned reads take GART's version-checking and tombstone scan paths.
//!
//! This file is a test process of its own: GART's hot-path counters bind
//! to the first telemetry registry installed in a process, so the run's
//! registry must be the only one.

use std::path::PathBuf;

use gs_perfbench::gart_write;

#[test]
fn gart_write_passes_its_checks() {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gart-write");
    let mut p = gart_write::Params::new(9, 1.0, true, work_dir);
    p.max_rounds = Some(1);
    p.accounts = 1_500;
    p.items = 150;
    p.orders = 6_000;
    p.round_txns = 3_000;
    let out = gart_write::run(&p);
    assert!(out.correct, "{:?}", out.notes);
    assert_eq!(out.failed, 0);
    // four segments of one round of 3 000 transactions, plus pinned reads
    assert!(out.attempted > 12_000, "{}", out.attempted);
    assert_eq!(out.get("gs-gart.commits"), Some(6_000.0));
    // one checkpoint per round, so recovery replays a checkpoint and a log
    assert_eq!(out.get("gs-gart.wal.checkpoints"), Some(2.0));
    for moved in [
        "gs-gart.version_check_scans_per_exec",
        "gs-gart.tombstone_scans_per_exec",
    ] {
        assert!(out.get(moved).unwrap() > 0.0, "{moved}: {:?}", out.metrics);
    }
    assert!(out
        .notes
        .iter()
        .any(|n| n.contains("recovery check") && n.ends_with("ok")));
}
