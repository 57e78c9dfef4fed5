//! The acceptance gate: the whole corpus runs clean under the sanitizer —
//! the `gs-bench sanitize --deny` CI bar.
//!
//! This lives in its own test binary because the sanitizer's event log is
//! process-global: a GRAPE run from another test in the same process,
//! caught mid-exchange when a corpus report is taken, reads as a receiver
//! still blocked in `recv()` (S004).
#![cfg(feature = "sanitize")]

#[test]
fn corpus_is_clean() {
    for r in gs_bench::sanitize::run_corpus(42) {
        assert!(
            r.report.is_clean(),
            "{} found defects:\n{}",
            r.workload,
            r.report.render()
        );
    }
}
