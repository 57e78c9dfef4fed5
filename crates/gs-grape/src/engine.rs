//! The BSP core shared by all GRAPE programming models: per-fragment worker
//! threads, all-to-all compact-buffer message exchange, and barrier-based
//! global reductions.
//!
//! [`GrapeEngine::run`] is the one driver every programming model runs
//! through. A worker that panics poisons the cluster, so its peers abort
//! instead of waiting for it. With [`GrapeEngine::with_recovery`] armed,
//! the driver also detects lost workers and messages, and restarts the
//! attempt; the programs resume from their last coordinated checkpoint
//! (see [`recover`](crate::recover)).
//!
//! Collectives and exchanges come in two flavors: the `try_` variants
//! return [`ClusterAborted`], and the infallible methods
//! ([`CommHandle::exchange`], [`CommHandle::allreduce`]) unwind with a
//! [`ClusterAborted`] payload, which the driver also counts as an abort.

use crate::fragment::Fragment;
use crate::messages::{MessageBlock, OutBuffers, Payload};
use crate::recover::{checkpoint, checkpoint_due, CheckpointStore, PregelState};
use gs_graph::VId;
use gs_sanitizer::channel::{unbounded, RecvTimeoutError, TrackedReceiver, TrackedSender};
use gs_telemetry::counter;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
// gs-lint: allow(L001 GlobalSync pairs the mutex with a Condvar, which has no tracked equivalent; the sanitizer's channel events already cover this rendezvous)
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A collective or exchange observed the cluster dying mid-operation: a
/// peer worker was killed, a message was lost, or the cluster was poisoned
/// by another worker's failure. The current attempt's results are void;
/// the recovery layer restarts from the last checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterAborted(pub &'static str);

impl std::fmt::Display for ClusterAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster aborted: {}", self.0)
    }
}

impl std::error::Error for ClusterAborted {}

/// Poll granularity for poison checks while blocked in a collective or an
/// exchange. Purely a responsiveness bound — correctness never depends on
/// the value.
const POLL: Duration = Duration::from_millis(10);

#[derive(Default)]
struct RoundEntry {
    arrived: usize,
    departed: usize,
    total_u: u64,
    /// Finalized by the round's last arrival: the f64 contributions are
    /// folded in a canonical order so the reduced value is bit-identical
    /// regardless of which worker arrived first (f64 addition is not
    /// associative; arrival order is scheduler noise).
    total_f: f64,
    contribs_f: Vec<f64>,
}

struct SyncState {
    /// Live reduction rounds, keyed by round number. An entry is created
    /// by the round's first arrival and **removed by its last departure**,
    /// so the map holds only rounds some worker is still inside — it stays
    /// bounded by the worker-skew of the moment (at most `workers` rounds),
    /// not by the length of the run.
    rounds: HashMap<u64, RoundEntry>,
    poisoned: Option<&'static str>,
}

/// Global reduction across all workers, keyed by collective round: every
/// worker contributes at round `r`; all observe the total.
///
/// Unlike a plain barrier, the round map tolerates skew (a fast worker may
/// enter round `r+1` while a slow one still sits in `r`) and failure: any
/// worker — or the engine's dead-worker detector — can [`poison`] the
/// sync, which promptly unblocks every waiter with [`ClusterAborted`]
/// instead of deadlocking on a peer that will never arrive.
///
/// [`poison`]: GlobalSync::poison
pub struct GlobalSync {
    workers: usize,
    /// `Some(d)` arms dead-worker detection: a reduction that makes no
    /// progress for `d` poisons the cluster instead of waiting forever.
    detect: Option<Duration>,
    state: Mutex<SyncState>,
    cv: Condvar,
}

impl GlobalSync {
    /// A sync for `workers` workers; `Some(d)` arms dead-worker detection.
    pub fn new(workers: usize, detect: Option<Duration>) -> Arc<Self> {
        Arc::new(Self {
            workers,
            detect,
            state: Mutex::new(SyncState {
                rounds: HashMap::new(),
                poisoned: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Marks the cluster dead: every blocked or future collective returns
    /// [`ClusterAborted`] immediately. Idempotent; the first cause wins.
    pub fn poison(&self, why: &'static str) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.poisoned.is_none() {
            st.poisoned = Some(why);
        }
        self.cv.notify_all();
    }

    /// The poison cause, if the cluster has been marked dead.
    pub fn poisoned(&self) -> Option<&'static str> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned
    }

    /// How many reduction rounds currently hold state. Exposed for the
    /// boundedness regression test: after a run completes this is 0, and
    /// mid-run it never exceeds the number of workers.
    pub fn rounds_live(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rounds
            .len()
    }

    /// The fallible core: contributes to round `round` and waits for all
    /// workers, polling for poison (and, when armed, for a dead worker).
    pub fn try_reduce(
        &self,
        round: u64,
        contribution: u64,
        contribution_f: f64,
    ) -> Result<(u64, f64), ClusterAborted> {
        let deadline = self.detect.map(|d| Instant::now() + d);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(why) = st.poisoned {
            return Err(ClusterAborted(why));
        }
        {
            let e = st.rounds.entry(round).or_default();
            e.total_u += contribution;
            e.contribs_f.push(contribution_f);
            e.arrived += 1;
            if e.arrived == self.workers {
                // Fold the f64 contributions in a canonical order so the
                // sum every worker observes is deterministic across runs.
                e.contribs_f.sort_by(|a, b| a.total_cmp(b));
                e.total_f = e.contribs_f.iter().sum();
                self.cv.notify_all();
            }
        }
        loop {
            if let Some(why) = st.poisoned {
                return Err(ClusterAborted(why));
            }
            if st.rounds.get(&round).map_or(0, |e| e.arrived) >= self.workers {
                break;
            }
            if let Some(dl) = deadline {
                if Instant::now() >= dl {
                    st.poisoned = Some("allreduce stalled: worker lost");
                    self.cv.notify_all();
                    return Err(ClusterAborted("allreduce stalled: worker lost"));
                }
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, POLL)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        let e = st.rounds.get_mut(&round).expect("round entry present");
        let out = (e.total_u, e.total_f);
        e.departed += 1;
        if e.departed == self.workers {
            // last one out prunes the round — the map stays bounded
            st.rounds.remove(&round);
        }
        Ok(out)
    }

    /// All-reduce sum at a given collective round. Every worker must call
    /// with the same monotonically increasing round number (see
    /// [`CommHandle::allreduce`], which manages the counter).
    pub fn sum_at(&self, round: u64, contribution: u64) -> u64 {
        or_unwind(self.try_reduce(round, contribution, 0.0)).0
    }
}

/// Unwraps a collective's result, unwinding with the [`ClusterAborted`]
/// payload if the cluster died. [`GrapeEngine::run`] counts that worker as
/// aborted and re-raises the failure that poisoned the cluster instead.
/// `resume_unwind` skips the panic hook, so only the original failure
/// prints.
fn or_unwind<T>(r: Result<T, ClusterAborted>) -> T {
    r.unwrap_or_else(|aborted| resume_unwind(Box::new(aborted)))
}

/// An exchange packet: sender, the sender's exchange round, and the block.
/// The round tag is what makes the exchange robust to reordering, delay,
/// and duplication: a receiver files every packet under its declared round
/// instead of trusting per-sender FIFO arrival order.
type Packet = (usize, u64, MessageBlock);

/// Per-worker communication handle for all-to-all exchanges.
pub struct CommHandle {
    pub my_id: usize,
    pub workers: usize,
    senders: Vec<TrackedSender<Packet>>,
    receiver: TrackedReceiver<Packet>,
    pub sync: Arc<GlobalSync>,
    /// This worker's collective-round counter (each allreduce is one
    /// collective round; all workers must make the same sequence of calls).
    round: std::cell::Cell<u64>,
    /// This worker's exchange-round counter (tags outgoing packets).
    xround: std::cell::Cell<u64>,
    /// Blocks received ahead of their exchange round: `round → one slot
    /// per sender`. Consumed when this worker reaches that round.
    ahead: std::cell::RefCell<HashMap<u64, Vec<Option<MessageBlock>>>>,
    /// Blocks the fault plan deferred, tagged with their original round;
    /// flushed at this worker's next collective so a peer still waiting on
    /// that round receives them late but correctly filed.
    delayed: std::cell::RefCell<Vec<(usize, u64, MessageBlock)>>,
    /// `Some(d)` arms message-loss detection: an exchange that makes no
    /// receive progress for `d` poisons the cluster and aborts.
    detect: Option<Duration>,
}

impl CommHandle {
    /// Builds a `k`-worker cluster of connected handles. `Some(d)` arms
    /// dead-worker / lost-message detection: any collective or exchange
    /// stalled past `d` poisons the cluster and surfaces [`ClusterAborted`]
    /// on every worker.
    pub fn cluster(k: usize, detect: Option<Duration>) -> Vec<CommHandle> {
        let mut senders = Vec::with_capacity(k);
        let mut receivers = Vec::with_capacity(k);
        for _ in 0..k {
            let (tx, rx) = unbounded("grape.exchange");
            senders.push(tx);
            receivers.push(rx);
        }
        let sync = GlobalSync::new(k, detect);
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, receiver)| CommHandle {
                my_id: i,
                workers: k,
                senders: senders.clone(),
                receiver,
                sync: Arc::clone(&sync),
                round: std::cell::Cell::new(0),
                xround: std::cell::Cell::new(0),
                ahead: std::cell::RefCell::new(HashMap::new()),
                delayed: std::cell::RefCell::new(Vec::new()),
                detect,
            })
            .collect()
    }

    /// Sends every fault-delayed block to its target, still tagged with
    /// the round it was originally part of. Send errors are ignored: in an
    /// aborting cluster the receiver may already be gone.
    fn flush_delayed(&self) {
        for (to, r, block) in self.delayed.borrow_mut().drain(..) {
            let _ = self.senders[to].send((self.my_id, r, block));
        }
    }

    /// Collective all-reduce sum (u64); unwinds if the cluster aborts.
    pub fn allreduce(&self, contribution: u64) -> u64 {
        or_unwind(self.try_allreduce(contribution))
    }

    /// Collective all-reduce sum (f64); unwinds if the cluster aborts.
    pub fn allreduce_f64(&self, contribution: f64) -> f64 {
        or_unwind(self.try_allreduce_f64(contribution))
    }

    /// Fallible all-reduce sum (u64).
    pub fn try_allreduce(&self, contribution: u64) -> Result<u64, ClusterAborted> {
        self.flush_delayed();
        let r = self.round.get();
        self.round.set(r + 1);
        Ok(self.sync.try_reduce(r, contribution, 0.0)?.0)
    }

    /// Fallible all-reduce sum (f64).
    pub fn try_allreduce_f64(&self, contribution: f64) -> Result<f64, ClusterAborted> {
        self.flush_delayed();
        let r = self.round.get();
        self.round.set(r + 1);
        Ok(self.sync.try_reduce(r, 0, contribution)?.1)
    }

    /// All-to-all exchange: sends one block to every worker (including
    /// self), receives exactly one block *from* every worker for this
    /// round. Returns the received blocks (indexed by sender) and the total
    /// message count delivered to *this* worker. Unwinds if the cluster
    /// aborts mid-exchange.
    pub fn exchange(&self, out: &mut OutBuffers) -> (Vec<MessageBlock>, u64) {
        or_unwind(self.try_exchange(out))
    }

    /// Fallible all-to-all exchange. Under an installed fault plan the
    /// outgoing side consults [`gs_chaos::message_fault`] per block
    /// (self-delivery is exempt — a worker cannot lose a message to
    /// itself); the receiving side files packets by round tag, dropping
    /// duplicates and stale retransmits and stashing early arrivals. A
    /// dropped block manifests as no receive progress for the detection
    /// window, which poisons the cluster so every worker aborts and the
    /// recovery layer can restart from the last checkpoint.
    pub fn try_exchange(
        &self,
        out: &mut OutBuffers,
    ) -> Result<(Vec<MessageBlock>, u64), ClusterAborted> {
        let round = self.xround.get();
        self.xround.set(round + 1);
        self.flush_delayed();
        let blocks = out.take();
        if gs_telemetry::enabled() {
            counter!("grape.msgs_sent"; blocks.iter().map(|b| b.count).sum());
            counter!("grape.msg_bytes_raw"; blocks.iter().map(|b| b.raw_bytes).sum());
            counter!("grape.msg_bytes_encoded";
                blocks.iter().map(|b| b.bytes.len() as u64).sum());
        }
        for (to, block) in blocks.into_iter().enumerate() {
            if to == self.my_id {
                let _ = self.senders[to].send((self.my_id, round, block));
                continue;
            }
            match gs_chaos::message_fault(self.my_id, to) {
                gs_chaos::MessageFault::Deliver => {
                    let _ = self.senders[to].send((self.my_id, round, block));
                }
                gs_chaos::MessageFault::Drop => {}
                gs_chaos::MessageFault::Duplicate => {
                    let _ = self.senders[to].send((self.my_id, round, block.clone()));
                    let _ = self.senders[to].send((self.my_id, round, block));
                }
                gs_chaos::MessageFault::Delay => {
                    self.delayed.borrow_mut().push((to, round, block));
                }
            }
        }

        let mut incoming: Vec<Option<MessageBlock>> = self
            .ahead
            .borrow_mut()
            .remove(&round)
            .unwrap_or_else(|| (0..self.workers).map(|_| None).collect());
        let mut got = incoming.iter().filter(|b| b.is_some()).count();
        let stall_start = gs_telemetry::enabled().then(Instant::now);
        let mut deadline = self.detect.map(|d| Instant::now() + d);
        while got < self.workers {
            let (from, r, block) = match self.receiver.recv_timeout(POLL) {
                Ok(p) => p,
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(why) = self.sync.poisoned() {
                        return Err(ClusterAborted(why));
                    }
                    if deadline.is_some_and(|dl| Instant::now() >= dl) {
                        const LOST: &str = "exchange stalled: message lost or worker dead";
                        self.sync.poison(LOST);
                        return Err(ClusterAborted(LOST));
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.sync.poison("exchange channel disconnected");
                    return Err(ClusterAborted("exchange channel disconnected"));
                }
            };
            // any receive is progress: push the loss-detection deadline out
            deadline = self.detect.map(|d| Instant::now() + d);
            match r.cmp(&round) {
                std::cmp::Ordering::Less => {
                    // stale retransmit of a round this worker completed
                }
                std::cmp::Ordering::Equal => {
                    if incoming[from].is_none() {
                        incoming[from] = Some(block);
                        got += 1;
                    }
                    // else: duplicate delivery — drop
                }
                std::cmp::Ordering::Greater => {
                    // a peer raced ahead; file under its declared round
                    let mut ahead = self.ahead.borrow_mut();
                    let slots = ahead
                        .entry(r)
                        .or_insert_with(|| (0..self.workers).map(|_| None).collect());
                    if slots[from].is_none() {
                        slots[from] = Some(block);
                    }
                }
            }
        }
        if let Some(t) = stall_start {
            counter!("grape.exchange_stall_ns"; t.elapsed().as_nanos() as u64);
        }
        let incoming: Vec<MessageBlock> = incoming
            .into_iter()
            .map(|b| b.expect("one per sender"))
            .collect();
        let count = incoming.iter().map(|b| b.count).sum();
        Ok((incoming, count))
    }
}

/// The GRAPE engine: owns the fragments and runs programs over them, one
/// worker thread per fragment.
pub struct GrapeEngine {
    pub fragments: Vec<Fragment>,
    /// When set, [`run`](Self::run) detects dead workers and lost messages
    /// and restarts failed attempts, and the programs that checkpoint
    /// (Pregel, PageRank) do so every `interval` supersteps, so a restart
    /// resumes from the last checkpoint instead of from the beginning.
    pub recovery: Option<crate::recover::RecoveryConfig>,
}

impl GrapeEngine {
    /// Partitions a global edge list into `k` fragments.
    pub fn from_edges(n: usize, edges: &[(VId, VId)], k: usize) -> Self {
        Self {
            fragments: Fragment::partition_edges(n, edges, k),
            recovery: None,
        }
    }

    /// Partitions a weighted edge list.
    pub fn from_weighted_edges(n: usize, edges: &[(VId, VId)], weights: &[f64], k: usize) -> Self {
        Self {
            fragments: Fragment::partition_weighted(n, edges, Some(weights), k),
            recovery: None,
        }
    }

    /// Partitions into `k` fragments materialised in the given topology
    /// layout ([`gs_graph::LayoutKind`]); algorithm results are identical
    /// across layouts.
    pub fn from_edges_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        k: usize,
        layout: gs_graph::LayoutKind,
    ) -> Self {
        Self {
            fragments: Fragment::partition_edges_with_layout(n, edges, k, layout),
            recovery: None,
        }
    }

    /// Partitions a weighted edge list with an explicit topology layout.
    pub fn from_weighted_edges_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        weights: &[f64],
        k: usize,
        layout: gs_graph::LayoutKind,
    ) -> Self {
        Self {
            fragments: Fragment::partition_weighted_with_layout(n, edges, Some(weights), k, layout),
            recovery: None,
        }
    }

    /// The topology layout the fragments were materialised in.
    pub fn layout(&self) -> gs_graph::LayoutKind {
        self.fragments
            .first()
            .map_or(gs_graph::LayoutKind::Csr, |f| f.layout())
    }

    /// Arms checkpoint/restart recovery.
    pub fn with_recovery(mut self, cfg: crate::recover::RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Global vertex count.
    pub fn global_n(&self) -> usize {
        self.fragments.first().map_or(0, |f| f.global_n)
    }

    /// Runs a per-fragment worker function in parallel and gathers each
    /// fragment's `(global id, value)` results into one global vector.
    /// The worker receives `(fragment, comm)`.
    ///
    /// A worker that panics poisons the cluster, so its peers abort
    /// instead of blocking on it. An attempt that aborts — on an injected
    /// fault ([`gs_chaos::ChaosUnwind`]) or a [`ClusterAborted`] — is
    /// retried while [`recovery`](Self::recovery) allows; the worker
    /// restores its own state from a [`CheckpointStore`]. Any other panic
    /// is re-raised with its original payload, never retried.
    /// Unarmed, there is one attempt and no detection deadline.
    pub fn run<T, F>(&self, worker: F) -> Vec<T>
    where
        T: Clone + Default + Send + 'static,
        F: Fn(&Fragment, &CommHandle) -> Result<Vec<(VId, T)>, ClusterAborted> + Sync,
    {
        let (max_restarts, detect) = self
            .recovery
            .as_ref()
            .map_or((0, None), |c| (c.max_restarts, Some(c.detect_timeout)));
        for attempt in 0..=max_restarts {
            if attempt > 0 {
                counter!("grape.recovery.restarts");
            }
            let comms = CommHandle::cluster(self.fragments.len(), detect);
            let results: Vec<_> = crossbeam::thread::scope(|s| {
                let worker = &worker;
                let handles: Vec<_> = self
                    .fragments
                    .iter()
                    .zip(comms)
                    .map(|(frag, comm)| {
                        s.spawn(move |_| {
                            let r = catch_unwind(AssertUnwindSafe(|| worker(frag, &comm)));
                            if r.is_err() {
                                // unblock the peers before this thread exits
                                comm.sync.poison("peer worker panicked");
                            }
                            r
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the worker wrapper catches every panic"))
                    .collect()
            })
            .expect("grape scope");

            let mut parts = Vec::with_capacity(results.len());
            let mut aborted = false;
            for r in results {
                match r {
                    Ok(Ok(part)) => parts.push(part),
                    Ok(Err(_)) => aborted = true,
                    Err(p) if p.is::<ClusterAborted>() || gs_chaos::is_chaos_unwind(&*p) => {
                        aborted = true
                    }
                    Err(p) => resume_unwind(p),
                }
            }
            if !aborted {
                let mut global = vec![T::default(); self.global_n()];
                for (g, v) in parts.into_iter().flatten() {
                    global[g.index()] = v;
                }
                return global;
            }
        }
        panic!("grape: run aborted; restart budget of {max_restarts} exhausted");
    }
}

/// A Pregel ("think like a vertex") program.
pub trait PregelProgram: Sync {
    /// Message type exchanged along edges.
    type Msg: Payload;
    /// Per-vertex state.
    type Value: Clone + Default + Send + 'static;

    /// Initial value for a vertex.
    fn init(&self, g: VId, frag: &Fragment) -> Self::Value;

    /// One superstep for one vertex. Returning `true` keeps the vertex
    /// active; `false` votes to halt (it reactivates on incoming messages).
    fn compute(
        &self,
        step: usize,
        local: u32,
        value: &mut Self::Value,
        msgs: &[Self::Msg],
        ctx: &mut PregelContext<'_, Self::Msg>,
    ) -> bool;

    /// Optional associative message combiner. A program that returns
    /// `Some` has its messages combined at the sender: one value per
    /// target vertex per superstep, delivered in place when the target is
    /// an inner vertex and sent once to the owner when it is a mirror.
    /// The engine probes the combiner once, on the first message a worker
    /// sends, so it must return `Some` for every pair or for none.
    fn combine(&self, _a: Self::Msg, _b: Self::Msg) -> Option<Self::Msg> {
        None
    }
}

/// One worker's sender-side combining slots for a whole Pregel run: a
/// dense slot per local id (inner vertices first, then outer mirrors).
/// Empty until the first send finds that the program combines, so
/// programs without a combiner keep the per-message path.
struct SenderSlots<M> {
    slots: Vec<Option<M>>,
    /// `None` until the first send probes the combiner.
    combining: Option<bool>,
}

impl<M: Payload> SenderSlots<M> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            combining: None,
        }
    }
}

/// Folds `msg` into a combining slot.
#[inline]
fn stage<M: Copy>(slot: &mut Option<M>, msg: M, combine: &dyn Fn(M, M) -> Option<M>) {
    *slot = Some(match *slot {
        None => msg,
        Some(old) => combine(old, msg).expect("combine returned Some once; it must for every pair"),
    });
}

/// Appends a received message to a vertex inbox, folding it into the
/// previous one when the program combines.
#[inline]
fn deliver<P: PregelProgram>(program: &P, inbox: &mut Vec<P::Msg>, m: P::Msg) {
    if let Some(last) = inbox.pop() {
        match program.combine(last, m) {
            Some(c) => inbox.push(c),
            None => {
                inbox.push(last);
                inbox.push(m);
            }
        }
    } else {
        inbox.push(m);
    }
}

/// Context passed to [`PregelProgram::compute`].
pub struct PregelContext<'a, M: Payload> {
    pub frag: &'a Fragment,
    out: &'a mut OutBuffers,
    staged: &'a mut SenderSlots<M>,
    combine: &'a dyn Fn(M, M) -> Option<M>,
}

impl<'a, M: Payload> PregelContext<'a, M> {
    /// Whether this run stages messages in the combining slots; the first
    /// send decides by probing the program's combiner.
    #[inline]
    fn combining(&mut self, msg: M) -> bool {
        if let Some(c) = self.staged.combining {
            return c;
        }
        let c = (self.combine)(msg, msg).is_some();
        if c {
            self.staged.slots = vec![None; self.frag.local_count()];
        }
        self.staged.combining = Some(c);
        c
    }

    /// Sends a message to a vertex by *global* id.
    #[inline]
    pub fn send(&mut self, target: VId, msg: M) {
        if self.combining(msg) {
            if let Some(l) = self.frag.local(target) {
                stage(&mut self.staged.slots[l as usize], msg, self.combine);
                return;
            }
        }
        let to = self.frag.owner(target).index();
        self.out.send(to, target, msg);
    }

    /// Sends to every out-neighbor of a local vertex.
    #[inline]
    pub fn send_to_out_neighbors(&mut self, local: u32, msg: M) {
        let frag = self.frag;
        if self.combining(msg) {
            let (slots, combine) = (&mut self.staged.slots, self.combine);
            frag.for_each_out(local, |nbr, _| stage(&mut slots[nbr.index()], msg, combine));
            return;
        }
        let out = &mut self.out;
        frag.for_each_out(local, |nbr, _| {
            let g = frag.global(nbr.0 as u32);
            let to = frag.owner(g).index();
            out.send(to, g, msg);
        });
    }
}

/// One Pregel superstep over a fragment: compute phase, exchange, inbox
/// fill (with combining), and the global termination reduction. Returns
/// `Ok(true)` to continue, `Ok(false)` on global termination.
///
/// A combining program's messages wait in `staged` until the compute
/// phase ends: each mirror's combined value then goes to its owner as one
/// message, and each inner vertex's goes straight into its inbox, at the
/// position of this worker's own block so inboxes fold in sender order.
#[allow(clippy::too_many_arguments)]
fn pregel_step<P: PregelProgram>(
    program: &P,
    frag: &Fragment,
    comm: &CommHandle,
    step: usize,
    values: &mut [P::Value],
    active: &mut [bool],
    inboxes: &mut [Vec<P::Msg>],
    out: &mut OutBuffers,
    staged: &mut SenderSlots<P::Msg>,
) -> Result<bool, ClusterAborted> {
    let n_inner = frag.inner_count;
    if comm.my_id == 0 {
        // one worker counts supersteps for the whole cluster
        counter!("grape.supersteps");
    }
    let combine = |a, b| program.combine(a, b);
    // compute phase
    let mut local_active = 0u64;
    for l in 0..n_inner {
        if !active[l] && inboxes[l].is_empty() {
            continue;
        }
        let msgs = std::mem::take(&mut inboxes[l]);
        let mut ctx = PregelContext {
            frag,
            out,
            staged,
            combine: &combine,
        };
        let keep = program.compute(step, l as u32, &mut values[l], &msgs, &mut ctx);
        active[l] = keep;
        if keep {
            local_active += 1;
        }
    }
    // one combined message per mirror, to its owner
    for (l, slot) in staged.slots.iter_mut().enumerate().skip(n_inner) {
        if let Some(m) = slot.take() {
            let g = frag.global(l as u32);
            out.send(frag.owner(g).index(), g, m);
        }
    }
    // exchange phase
    let sent = out.total();
    let (blocks, _received) = comm.try_exchange(out)?;
    let mut delivered_locally = 0u64;
    for (from, block) in blocks.iter().enumerate() {
        if from == comm.my_id {
            for (inbox, slot) in inboxes.iter_mut().zip(&mut staged.slots) {
                if let Some(m) = slot.take() {
                    delivered_locally += 1;
                    deliver(program, inbox, m);
                }
            }
        }
        block.for_each::<P::Msg>(|g, m| {
            let l = frag.local(g).expect("message routed to owner") as usize;
            debug_assert!(l < n_inner);
            deliver(program, &mut inboxes[l], m);
        });
    }
    // global termination: nobody active, nothing in flight or delivered
    // in place (a superstep whose messages all stayed on their sender's
    // fragment must not end the run)
    let global_pending = comm.try_allreduce(local_active + sent + delivered_locally)?;
    Ok(global_pending != 0)
}

/// Runs a Pregel program to fixpoint (or `max_steps`), returning per-vertex
/// values indexed by global id. With [`GrapeEngine::with_recovery`] armed,
/// the run also checkpoints every `interval` supersteps, and a restarted
/// attempt resumes from the last committed checkpoint.
pub fn run_pregel<P: PregelProgram>(
    engine: &GrapeEngine,
    program: &P,
    max_steps: usize,
) -> Vec<P::Value> {
    let store = CheckpointStore::<PregelState<P::Msg, P::Value>>::new();
    engine.run(|frag, comm| {
        let n_inner = frag.inner_count;
        let idx = frag.id.index();
        let (start, mut values, mut active, mut inboxes) = match store.restore(idx) {
            Some((step, st)) => (step + 1, st.values, st.active, st.inboxes),
            None => (
                0,
                (0..n_inner)
                    .map(|l| program.init(frag.global(l as u32), frag))
                    .collect(),
                vec![true; n_inner],
                vec![Vec::new(); n_inner],
            ),
        };
        let mut out = OutBuffers::new(comm.workers);
        let mut staged = SenderSlots::new();
        for step in start..max_steps {
            gs_chaos::worker_kill_point(comm.my_id, step);
            let cont = pregel_step(
                program,
                frag,
                comm,
                step,
                &mut values,
                &mut active,
                &mut inboxes,
                &mut out,
                &mut staged,
            )?;
            if !cont {
                break;
            }
            if checkpoint_due(engine, step, max_steps) {
                let snapshot = PregelState {
                    values: values.clone(),
                    active: active.clone(),
                    inboxes: inboxes.clone(),
                };
                checkpoint(comm, &store, idx, step, snapshot)?;
            }
        }
        Ok((0..n_inner)
            .map(|l| (frag.global(l as u32), values[l].clone()))
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max-value propagation: every vertex converges to the component max.
    struct MaxProp;
    impl PregelProgram for MaxProp {
        type Msg = u64;
        type Value = u64;
        fn init(&self, g: VId, _f: &Fragment) -> u64 {
            g.0
        }
        fn compute(
            &self,
            step: usize,
            local: u32,
            value: &mut u64,
            msgs: &[u64],
            ctx: &mut PregelContext<'_, u64>,
        ) -> bool {
            let before = *value;
            for &m in msgs {
                *value = (*value).max(m);
            }
            if step == 0 || *value > before {
                let v = *value;
                ctx.send_to_out_neighbors(local, v);
            }
            false // vote halt; reactivated by messages
        }
        fn combine(&self, a: u64, b: u64) -> Option<u64> {
            Some(a.max(b))
        }
    }

    #[test]
    fn max_propagation_on_ring() {
        let edges: Vec<(VId, VId)> = (0..40u64)
            .flat_map(|i| [(VId(i), VId((i + 1) % 40)), (VId((i + 1) % 40), VId(i))])
            .collect();
        for k in [1, 3, 4] {
            let engine = GrapeEngine::from_edges(40, &edges, k);
            let result = run_pregel(&engine, &MaxProp, 100);
            assert!(result.iter().all(|&v| v == 39), "k={k}: {result:?}");
        }
    }

    #[test]
    fn disconnected_components_get_their_own_max() {
        // two disjoint bidirectional paths: 0-1-2, 3-4
        let edges = vec![
            (VId(0), VId(1)),
            (VId(1), VId(0)),
            (VId(1), VId(2)),
            (VId(2), VId(1)),
            (VId(3), VId(4)),
            (VId(4), VId(3)),
        ];
        let engine = GrapeEngine::from_edges(5, &edges, 2);
        let result = run_pregel(&engine, &MaxProp, 50);
        assert_eq!(result, vec![2, 2, 2, 4, 4]);
    }

    /// Regression (early termination): with sender-side combining, a
    /// superstep whose only messages target the sender's own fragment
    /// puts nothing on the wire. Those in-place deliveries must still
    /// count as pending work, or the run stops after the first hop. BFS
    /// from a fragment-1 vertex into a chain owned by fragment 0: from
    /// superstep 1 on, every message stays on fragment 0.
    #[test]
    fn local_only_supersteps_do_not_end_the_run() {
        let router = gs_graph::partition::EdgeCutPartitioner::new(2);
        let owned_by = |f: usize| {
            (0u64..)
                .map(VId)
                .filter(move |&v| router.owner(v).index() == f)
        };
        let src = owned_by(1).next().unwrap();
        let chain: Vec<VId> = owned_by(0).take(5).collect();
        let mut edges = vec![(src, chain[0])];
        edges.extend(chain.windows(2).map(|w| (w[0], w[1])));
        let n = edges.iter().map(|&(s, d)| s.0.max(d.0)).max().unwrap() as usize + 1;

        let one = crate::algorithms::bfs(&GrapeEngine::from_edges(n, &edges, 1), src);
        let two = crate::algorithms::bfs(&GrapeEngine::from_edges(n, &edges, 2), src);
        assert_eq!(one[chain[4].index()], 5, "k=1 reaches the end of the chain");
        assert_eq!(two, one, "k=2 must reach the same fixpoint as k=1");
    }

    #[test]
    fn global_sync_sums_across_workers() {
        let comms = CommHandle::cluster(4, None);
        let totals: Vec<u64> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    s.spawn(move |_| -> u64 {
                        (0..3).map(|_| c.allreduce(c.my_id as u64 + 1)).sum()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        // each round sums 1+2+3+4 = 10; three rounds = 30 per worker
        assert!(totals.iter().all(|&t| t == 30), "{totals:?}");
    }

    /// Regression (round-map growth): a long run must not accumulate an
    /// entry per past round — the last worker out of a round prunes it, so
    /// the map holds at most the rounds currently straddled by skew.
    #[test]
    fn global_sync_round_map_stays_bounded_over_long_runs() {
        let workers = 4;
        let sync = GlobalSync::new(workers, None);
        let rounds = 2_000u64;
        crossbeam::thread::scope(|s| {
            for w in 0..workers {
                let sync = Arc::clone(&sync);
                s.spawn(move |_| {
                    for r in 0..rounds {
                        let total = sync.sum_at(r, w as u64 + 1);
                        assert_eq!(total, 10);
                    }
                    // live rounds are bounded by skew, never by history
                    assert!(
                        sync.rounds_live() <= workers,
                        "round map grew to {}",
                        sync.rounds_live()
                    );
                });
            }
        })
        .unwrap();
        assert_eq!(sync.rounds_live(), 0, "all rounds pruned after the run");
    }

    /// Poisoning a sync unblocks waiting workers with `ClusterAborted`
    /// instead of deadlocking on a peer that never arrives.
    #[test]
    fn poison_unblocks_waiting_workers() {
        let sync = GlobalSync::new(2, None);
        let s2 = Arc::clone(&sync);
        let waiter = std::thread::spawn(move || s2.try_reduce(0, 1, 0.0));
        std::thread::sleep(Duration::from_millis(20));
        sync.poison("test kill");
        let got = waiter.join().unwrap();
        assert_eq!(got, Err(ClusterAborted("test kill")));
        assert_eq!(sync.poisoned(), Some("test kill"));
    }

    /// Dead-worker detection: with detection armed, a reduction missing a
    /// contributor aborts after the window instead of hanging forever.
    #[test]
    fn armed_sync_detects_missing_worker() {
        let sync = GlobalSync::new(2, Some(Duration::from_millis(50)));
        let got = sync.try_reduce(0, 1, 0.0);
        assert!(got.is_err(), "lone worker must time out");
        assert!(sync.poisoned().is_some());
    }

    /// An exchange missing one sender's block aborts the cluster via the
    /// detection window (this is how message loss surfaces).
    #[test]
    fn armed_exchange_detects_lost_block() {
        let mut comms = CommHandle::cluster(2, Some(Duration::from_millis(60)));
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        // worker 1 never sends; worker 0's exchange must abort, not hang
        drop(c1);
        let mut out = OutBuffers::new(2);
        let got = c0.try_exchange(&mut out);
        assert!(got.is_err(), "exchange must detect the lost block");
        assert!(c0.sync.poisoned().is_some());
    }
}
