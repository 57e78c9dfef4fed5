//! A worker that panics must fail the whole run promptly, with its own
//! panic, on armed and unarmed engines alike. The driver catches the
//! panic and poisons the cluster; without that, the surviving worker of
//! an unarmed run would block forever in its exchange receive.
//!
//! Each case runs on a helper thread and waits at most `DEADLINE`, so a
//! regression fails the test instead of hanging the suite.

use gs_grape::{
    run_pie, run_pregel, Fragment, GrapeEngine, PieContext, PieProgram, PregelContext,
    PregelProgram, RecoveryConfig,
};
use gs_graph::VId;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(10);
const BUG: &str = "fragment 0 fails at superstep 1";
const GENUINE: &str = "genuine bug";

fn ring(n: u64, k: usize) -> GrapeEngine {
    let edges: Vec<(VId, VId)> = (0..n)
        .flat_map(|i| [(VId(i), VId((i + 1) % n)), (VId((i + 1) % n), VId(i))])
        .collect();
    GrapeEngine::from_edges(n as usize, &edges, k)
}

/// Runs `f` on a helper thread and returns its panic payload, failing if
/// `f` returns normally or does not finish within `DEADLINE`.
fn panic_payload(f: impl FnOnce() + Send + 'static) -> Box<dyn Any + Send> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    rx.recv_timeout(DEADLINE)
        .expect("the run hung instead of re-raising the worker's panic")
        .expect_err("the run must re-raise the worker's panic")
}

fn assert_payload(payload: &(dyn Any + Send), want: &str) {
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&want),
        "the re-raised payload must be the original panic"
    );
}

/// Floods every vertex's value to its neighbours; fragment 0 panics in
/// superstep 1.
struct PregelBug;

impl PregelProgram for PregelBug {
    type Msg = u64;
    type Value = u64;

    fn init(&self, g: VId, _frag: &Fragment) -> u64 {
        g.0
    }

    fn compute(
        &self,
        step: usize,
        local: u32,
        value: &mut u64,
        _msgs: &[u64],
        ctx: &mut PregelContext<'_, u64>,
    ) -> bool {
        if step == 1 && ctx.frag.id.index() == 0 {
            panic!("fragment 0 fails at superstep 1");
        }
        ctx.send_to_out_neighbors(local, *value);
        step < 4
    }
}

#[test]
fn unarmed_pregel_reraises_a_worker_panic() {
    let payload = panic_payload(|| {
        run_pregel(&ring(16, 2), &PregelBug, 8);
    });
    assert_payload(payload.as_ref(), BUG);
}

/// Sends every vertex's id to its neighbours each round through PIE's
/// infallible exchange; fragment 0 panics in its first incremental round.
struct PieBug;

impl PieProgram for PieBug {
    type Msg = u64;
    type State = ();
    type Out = u64;

    fn init(&self, _frag: &Fragment) {}

    fn partial_eval(&self, frag: &Fragment, _state: &mut (), ctx: &mut PieContext<'_, u64>) {
        for l in 0..frag.inner_count as u32 {
            let g = frag.global(l);
            frag.for_each_out(l, |nbr, _| ctx.send(frag.global(nbr.0 as u32), g.0));
        }
    }

    fn inc_eval(
        &self,
        frag: &Fragment,
        state: &mut (),
        _msgs: &[(VId, u64)],
        ctx: &mut PieContext<'_, u64>,
    ) {
        if frag.id.index() == 0 {
            panic!("fragment 0 fails at superstep 1");
        }
        self.partial_eval(frag, state, ctx);
    }

    fn collect(&self, frag: &Fragment, _state: &()) -> Vec<(VId, u64)> {
        (0..frag.inner_count as u32)
            .map(|l| (frag.global(l), 0))
            .collect()
    }
}

/// The surviving worker aborts inside the infallible `exchange`; the run
/// must re-raise fragment 0's panic, not the peer's abort.
#[test]
fn unarmed_pie_reraises_the_original_panic_not_the_peer_abort() {
    let payload = panic_payload(|| {
        run_pie(&ring(16, 2), &PieBug, 8);
    });
    assert_payload(payload.as_ref(), BUG);
}

/// A genuine (non-chaos) worker panic on an armed engine must not be
/// retried: it resurfaces on the driver thread after one attempt.
#[test]
fn real_panics_are_reraised_not_retried() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let calls = Arc::clone(&attempts);
    let payload = panic_payload(move || {
        let engine = ring(8, 2).with_recovery(RecoveryConfig::default());
        engine.run::<u64, _>(|_frag, _comm| {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("genuine bug");
        });
    });
    assert_payload(payload.as_ref(), GENUINE);
    assert!(
        attempts.load(Ordering::SeqCst) <= 2,
        "a real panic must not burn the restart budget"
    );
}
