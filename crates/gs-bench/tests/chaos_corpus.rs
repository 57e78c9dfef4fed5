//! The acceptance gate: the whole chaos corpus holds chaos equivalence —
//! the `gs-bench chaos --deny` CI bar.
//!
//! This lives in its own test binary because the fault plan is
//! process-global: while a corpus case has a plan installed, a GRAPE run
//! from another test in the same process would take its message faults
//! without recovery armed and wait forever for a dropped block.
#![cfg(feature = "chaos")]

#[test]
fn corpus_holds_chaos_equivalence() {
    for r in gs_bench::chaos::run_corpus(42) {
        assert!(
            r.outcome.is_ok(),
            "{} broke equivalence ({}): {}",
            r.workload,
            r.stats.render(),
            r.outcome.unwrap_err()
        );
    }
}
