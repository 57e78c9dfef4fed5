//! The write workload: closed-loop GART transactions on a WAL-backed
//! store, with reads at pinned older versions.
//!
//! One harness thread commits transactions back to back. Each adds one BUY
//! edge (`begin` → `add_edge` → `commit`), and every [`DELETE_EVERY`]th
//! also deletes the edge added [`DELETE_LAG`] transactions earlier, so
//! tombstones build up. The store logs to a WAL with
//! `Durability::Buffered` (records reach the OS, no `fsync` per commit) and
//! is checkpointed once per round, halfway through. After every
//! [`READ_EVERY`]th commit the thread reads the BUY adjacency of the
//! account and the item written [`READ_LAG`] commits earlier, at the
//! version that commit published. Later writes to the same lists make
//! those reads take GART's version-checking and tombstone scan paths.
//!
//! GART never reclaims a version, so a store only grows. The work is
//! therefore cut into rounds of `round_txns` transactions, each running the
//! same schedule on a freshly set-up store: memory stays bounded and every
//! round measures the same work. Each set-up (data generation and durable
//! load) is timed apart from the rounds, and so is the checkpoint, which
//! ends in an `fsync` of the whole image whose time follows the host's disk
//! rather than the program.
//!
//! The writer moves to the next CPU for every round. Left to the scheduler
//! it stayed on one vCPU for a whole run, and on the 2-vCPU host this was
//! tuned on one vCPU ran the loop a quarter slower than the other, so runs
//! split into a fast and a slow group. Throughput is therefore the mean
//! over the rounds (all transactions over the time in rounds), and each
//! `setup_s` sample is the mean of one set-up per CPU.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gs_datagen::apps::{fraud_graph, FraudSchema};
use gs_gart::{DurabilityConfig, GartStore};
use gs_graph::{PropertyGraphData, Value};
use gs_grin::{Direction, GrinGraph, LabelId};
use gs_telemetry::Registry;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::stats::{median, peak_rss_mb, per, quantile, Digest, Outcome};

/// Pins the calling thread to `cpu` (Linux `sched_setaffinity`); returns
/// whether it took.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // a `cpu_set_t`: 1024 bits
    let mut mask = [0u64; 16];
    mask[cpu / 64 % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the length
    // passed, which the call only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

/// Makes glibc keep the memory the program frees for its next allocations
/// instead of handing it back to the kernel. Every round frees a store of
/// about 100 MB and the next set-up builds another; handed back, each
/// round faulted the pages in again, and on a virtual machine that cost
/// follows the host's memory pressure: throughput and peak memory then
/// moved by 12 % and 18 % over five seeds, against 7 % and 6 % with it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and touches only the allocator's
    // own settings; the values are within the ranges glibc documents.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

/// Every this many transactions also deletes an earlier edge.
pub const DELETE_EVERY: u64 = 4;
/// How many transactions back the deleted edge was added.
pub const DELETE_LAG: u64 = 2048;
/// A pinned read follows every this many commits.
pub const READ_EVERY: u64 = 4;
/// How many commits old the version of a pinned read is. Shorter than
/// [`DELETE_LAG`], so no read targets the very edge a later transaction
/// deletes.
pub const READ_LAG: usize = 512;

/// Sizes and knobs of a write run. [`Params::new`] gives the sizes the
/// benchmark runs at; tests shrink them.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Measured seconds (split between plain and traced segments when
    /// `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    /// Stops each segment after this many rounds instead of on the clock.
    pub max_rounds: Option<u64>,
    pub accounts: usize,
    pub items: usize,
    pub orders: usize,
    /// Transactions per round (the length of the schedule).
    pub round_txns: usize,
    /// Where the store keeps its WAL and checkpoints.
    pub work_dir: PathBuf,
}

impl Params {
    pub fn new(seed: u64, seconds: f64, trace: bool, work_dir: PathBuf) -> Self {
        Self {
            seed,
            seconds,
            trace,
            max_rounds: None,
            accounts: 20_000,
            items: 2_000,
            orders: 80_000,
            round_txns: 1 << 16,
            work_dir,
        }
    }
}

/// One scheduled write: a BUY edge (account, item, date).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOp {
    pub account: u64,
    pub item: u64,
    pub date: i64,
}

/// Generates a round's schedule from the seed: uniformly drawn accounts
/// buying uniformly drawn items. (Under a Zipf draw the hottest account's
/// list collects thousands of tombstones within seconds, and GART's
/// tombstone scan, which checks every entry against every tombstone of its
/// list, then dominates the run.)
pub fn schedule(p: &Params) -> Vec<WriteOp> {
    let mut rng = Pcg64Mcg::new((p.seed as u128) << 32 | 0x3417e);
    (0..p.round_txns)
        .map(|_| WriteOp {
            account: rng.gen_range(0..p.accounts as u64),
            item: rng.gen_range(0..p.items as u64),
            date: rng.gen_range(15300..15400),
        })
        .collect()
}

/// FNV-1a digest over the schedule.
pub fn digest(ops: &[WriteOp]) -> u64 {
    let mut d = Digest::default();
    for w in ops {
        d.eat(w.account);
        d.eat(w.item);
        d.eat(w.date as u64);
    }
    d.value()
}

/// The generated graph and the BUY degrees it starts with.
struct World {
    data: PropertyGraphData,
    labels: FraudSchema,
    account_deg: Vec<u64>,
    item_deg: Vec<u64>,
    cfg: DurabilityConfig,
}

fn load_world(p: &Params) -> World {
    let workload = fraud_graph(p.accounts, p.items, p.orders, 0, p.seed);
    let labels = workload.labels;
    let mut account_deg = vec![0; p.accounts];
    let mut item_deg = vec![0; p.items];
    for &(a, i) in &workload.data.edges[labels.buy.index()].endpoints {
        account_deg[a as usize] += 1;
        item_deg[i as usize] += 1;
    }
    World {
        data: workload.data,
        labels,
        account_deg,
        item_deg,
        cfg: DurabilityConfig::new(p.work_dir.join("gart")).buffered(),
    }
}

/// Loads the graph into a fresh WAL-backed store in one transaction.
fn load_durable(world: &World) -> Arc<GartStore> {
    let data = &world.data;
    let _ = std::fs::remove_dir_all(&world.cfg.dir);
    let store =
        GartStore::open(data.schema.clone(), world.cfg.clone()).expect("durable store opens");
    for batch in &data.vertices {
        for (ext, props) in batch.external_ids.iter().zip(&batch.properties) {
            store
                .add_vertex(batch.label, *ext, props.clone())
                .expect("vertex loads");
        }
    }
    for batch in &data.edges {
        let edges: Vec<(u64, u64, Vec<Value>)> = batch
            .endpoints
            .iter()
            .zip(&batch.properties)
            .map(|(&(s, d), props)| (s, d, props.clone()))
            .collect();
        store.add_edges(batch.label, &edges).expect("edges load");
    }
    store.try_commit().expect("initial load commits");
    store
}

/// What one segment of the writer did.
#[derive(Default)]
struct Phase {
    /// Seconds of each set-up run before a round.
    setups: Vec<f64>,
    /// Per transaction: `begin` → `commit` return.
    commit_ns: Vec<u64>,
    /// Per round: transactions per second.
    round_rates: Vec<f64>,
    /// Per round: the checkpoint's time.
    checkpoint_ns: Vec<u64>,
    /// Failed commits and checkpoints.
    failed: u64,
    /// Rounds the writer could not be moved to their CPU for.
    unpinned: u64,
    reads: u64,
    wrong_reads: u64,
    /// Time spent in rounds (set-ups and checkpoints excluded).
    busy_s: f64,
}

impl Phase {
    fn merge(mut self, other: Phase) -> Phase {
        self.setups.extend(other.setups);
        self.commit_ns.extend(other.commit_ns);
        self.round_rates.extend(other.round_rates);
        self.checkpoint_ns.extend(other.checkpoint_ns);
        self.failed += other.failed;
        self.unpinned += other.unpinned;
        self.reads += other.reads;
        self.wrong_reads += other.wrong_reads;
        self.busy_s += other.busy_s;
        self
    }
}

/// A commit whose effect a pinned read checks later.
#[derive(Clone, Copy)]
struct Written {
    op: WriteOp,
    version: u64,
    /// BUY out-degree of the account and in-degree of the item right
    /// after the commit.
    degrees: (u64, u64),
}

/// A set-up: the generated graph, its durable store and the BUY degrees
/// the store should hold.
struct Writer {
    world: World,
    store: Arc<GartStore>,
    account_deg: Vec<u64>,
    item_deg: Vec<u64>,
    /// Transactions run on this store.
    done: usize,
}

impl Writer {
    fn set_up(p: &Params) -> Self {
        let world = load_world(p);
        Self {
            store: load_durable(&world),
            account_deg: world.account_deg.clone(),
            item_deg: world.item_deg.clone(),
            world,
            done: 0,
        }
    }
}

/// The BUY degree of `ext` (a vertex of label `vl`) at `version`, through
/// GRIN.
fn degree_at(w: &Writer, vl: LabelId, ext: u64, version: u64) -> u64 {
    let labels = &w.world.labels;
    let dir = if vl == labels.account {
        Direction::Out
    } else {
        Direction::In
    };
    let snap = w.store.snapshot_at(version);
    let Some(v) = snap.internal_id(vl, ext) else {
        return u64::MAX;
    };
    let mut n = 0;
    snap.for_each_adjacent(v, vl, labels.buy, dir, &mut |_| n += 1);
    n
}

/// Runs one round of the schedule on `w`'s store, with the checkpoint
/// halfway (so recovery replays a checkpoint and a log).
fn run_round(ops: &[WriteOp], w: &mut Writer, ph: &mut Phase) {
    let labels = w.world.labels;
    let mut recent = VecDeque::with_capacity(READ_LAG + 1);
    let start = Instant::now();
    let mut checkpoint_s = 0.0;
    for (i, &op) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            let t = Instant::now();
            if !matches!(w.store.checkpoint(), Ok(true)) {
                ph.failed += 1;
            }
            ph.checkpoint_ns.push(t.elapsed().as_nanos() as u64);
            checkpoint_s += t.elapsed().as_secs_f64();
        }
        let i = i as u64;
        let victim = (i >= DELETE_LAG && i.is_multiple_of(DELETE_EVERY))
            .then(|| ops[(i - DELETE_LAG) as usize]);
        let t = Instant::now();
        let mut txn = w.store.begin();
        let added = txn
            .add_edge(labels.buy, op.account, op.item, vec![Value::Date(op.date)])
            .is_ok();
        let deleted = match victim {
            Some(v) => txn
                .delete_edge(labels.buy, v.account, v.item)
                .unwrap_or(false),
            None => false,
        };
        let committed = txn.commit();
        let ns = t.elapsed().as_nanos() as u64;
        ph.commit_ns.push(ns);
        let (true, Ok(version)) = (added, committed) else {
            ph.failed += 1;
            continue;
        };
        w.account_deg[op.account as usize] += 1;
        w.item_deg[op.item as usize] += 1;
        if let (true, Some(v)) = (deleted, victim) {
            w.account_deg[v.account as usize] -= 1;
            w.item_deg[v.item as usize] -= 1;
        }
        recent.push_back(Written {
            op,
            version,
            degrees: (
                w.account_deg[op.account as usize],
                w.item_deg[op.item as usize],
            ),
        });
        if recent.len() > READ_LAG {
            let old: Written = recent.pop_front().expect("ring is full");
            if i.is_multiple_of(READ_EVERY) {
                ph.reads += 1;
                let seen = (
                    degree_at(w, labels.account, old.op.account, old.version),
                    degree_at(w, labels.item, old.op.item, old.version),
                );
                if seen != old.degrees {
                    ph.wrong_reads += 1;
                }
            }
        }
    }
    let s = start.elapsed().as_secs_f64() - checkpoint_s;
    w.done += ops.len();
    ph.busy_s += s;
    ph.round_rates.push(ops.len() as f64 / s);
}

/// Runs rounds for the segment's budget (set-ups included) on a thread of
/// its own, setting up afresh before every round unless the current
/// set-up is unused. Round `rounds` (counted over the whole run) and its
/// set-up run on CPU `rounds % cpus`.
fn run_phase(
    p: &Params,
    ops: &[WriteOp],
    w: &mut Option<Writer>,
    (rounds, cpus): (&mut usize, usize),
    seconds: f64,
) -> Phase {
    std::thread::scope(|s| {
        s.spawn(|| run_rounds(p, ops, w, (rounds, cpus), seconds))
            .join()
            .expect("writer thread")
    })
}

fn run_rounds(
    p: &Params,
    ops: &[WriteOp],
    w: &mut Option<Writer>,
    (rounds, cpus): (&mut usize, usize),
    seconds: f64,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    for round in 0u64.. {
        let over = match p.max_rounds {
            Some(m) => round >= m,
            None => round > 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if over {
            break;
        }
        if !pin_to(*rounds % cpus) {
            ph.unpinned += 1;
        }
        *rounds += 1;
        if w.as_ref().is_none_or(|w| w.done > 0) {
            drop(w.take());
            let t = Instant::now();
            *w = Some(Writer::set_up(p));
            ph.setups.push(t.elapsed().as_secs_f64());
        }
        run_round(ops, w.as_mut().expect("set up"), &mut ph);
    }
    ph
}

/// Reopens the last round's store from its directory and checks that
/// recovery holds exactly the BUY edges its acknowledged commits left.
fn check_recovery(w: Writer) -> (u64, bool) {
    let expected: u64 = w.account_deg.iter().sum();
    let (schema, cfg, buy) = (
        w.world.data.schema.clone(),
        w.world.cfg.clone(),
        w.world.labels.buy,
    );
    drop(w);
    let ok = match GartStore::open(schema, cfg) {
        Ok(store) => store.snapshot().edge_count(buy) as u64 == expected,
        Err(_) => false,
    };
    (expected, ok)
}

fn settle(phase: &Phase, out: &mut Outcome) {
    out.attempted += phase.commit_ns.len() as u64 + phase.reads;
    out.failed += phase.failed + phase.wrong_reads;
    if phase.wrong_reads > 0 {
        out.correct = false;
    }
}

fn us_quantile(ns: &[u64], q: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Runs the write workload end to end.
pub fn run(p: &Params) -> Outcome {
    keep_freed_memory();
    let ops = schedule(p);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "workload=gart-write seed={} schedule_digest={:#018x} txns_per_round={}",
        p.seed,
        digest(&ops),
        ops.len()
    ));
    out.notes.push(format!(
        "threads: 1 closed-loop writer; accounts={} items={} orders={}; WAL Buffered, \
         checkpoint halfway through each round; delete every {DELETE_EVERY} (lag {DELETE_LAG}); pinned read \
         every {READ_EVERY} commits at {READ_LAG} commits back",
        p.accounts, p.items, p.orders
    ));

    let mut w = None;
    let mut rounds = 0;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut measure = |seconds: f64| run_phase(p, &ops, &mut w, (&mut rounds, cpus), seconds);

    let phase = if !p.trace {
        let phase = measure(p.seconds);
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        settle(&phase, &mut out);
        // consecutive set-ups ran on different CPUs: each sample is the
        // mean of one set-up per CPU, so every CPU weighs the same in it
        let setups: Vec<f64> = phase
            .setups
            .chunks_exact(cpus)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let setups = if setups.is_empty() {
            phase.setups.clone()
        } else {
            setups
        };
        out.metric("setup_s", median(&setups), "s", setups.len() as u64);
        let n = phase.commit_ns.len() as u64;
        out.metric(
            "throughput_per_s",
            n as f64 / phase.busy_s,
            "1/s",
            phase.round_rates.len() as u64,
        );
        let p50 = us_quantile(&phase.commit_ns, 0.5);
        out.metric("latency_p50_us", p50, "us", n);
        out.extra(
            "round_rate_median_per_s",
            median(&phase.round_rates),
            "1/s",
            phase.round_rates.len() as u64,
        );
        out.extra("commit_p50_us", p50, "us", n);
        out.extra(
            "commit_p99_us",
            us_quantile(&phase.commit_ns, 0.99),
            "us",
            n,
        );
        out.extra(
            "error_ratio",
            per(out.failed as f64, out.attempted),
            "ratio",
            out.attempted,
        );
        phase
    } else {
        // plain and traced segments in ABBA order, so drift over the run
        // does not read as tracing overhead
        let registry = Registry::new();
        let quarter = p.seconds / 4.0;
        let a1 = measure(quarter);
        gs_telemetry::install(registry.clone());
        registry.reset();
        let b1 = measure(quarter);
        let b2 = measure(quarter);
        gs_telemetry::uninstall();
        let a2 = measure(quarter);
        let (plain, traced) = (a1.merge(a2), b1.merge(b2));
        settle(&plain, &mut out);
        settle(&traced, &mut out);
        report_per_layer(&traced, &registry, &mut out);
        let rate = |ph: &Phase| ph.commit_ns.len() as f64 / ph.busy_s;
        out.metric(
            "trace.overhead_pct",
            (rate(&plain) / rate(&traced) - 1.0) * 100.0,
            "%",
            traced.round_rates.len() as u64,
        );
        plain.merge(traced)
    };
    out.notes.push(format!(
        "output check: {} pinned reads against the expected degrees, {} mismatched; \
         {} rounds not moved to their CPU",
        phase.reads, phase.wrong_reads, phase.unpinned
    ));

    let (expected, ok) = check_recovery(w.expect("at least one round ran"));
    out.notes.push(format!(
        "recovery check: the last round's store, reopened from its WAL, holds {expected} BUY \
         edges: {}",
        if ok { "ok" } else { "MISMATCH" }
    ));
    if !ok {
        out.correct = false;
        out.failed += 1;
    }
    let _ = std::fs::remove_dir_all(&p.work_dir);
    out
}

fn report_per_layer(phase: &Phase, registry: &Registry, out: &mut Outcome) {
    let commits = phase.commit_ns.len() as u64;
    let counter = |name: &str| registry.counter_value(name) as f64;
    out.metric(
        "gs-gart.commit_us",
        us_quantile(&phase.commit_ns, 0.5),
        "us",
        commits,
    );
    out.metric("gs-gart.commits", commits as f64, "count", commits);
    out.metric(
        "gs-gart.wal.bytes_per_commit",
        per(counter("gart.wal.bytes"), commits),
        "B",
        commits,
    );
    out.metric(
        "gs-gart.wal.checkpoints",
        counter("gart.wal.checkpoints"),
        "count",
        commits,
    );
    out.metric(
        "gs-gart.checkpoint_us",
        us_quantile(&phase.checkpoint_ns, 0.5),
        "us",
        phase.checkpoint_ns.len() as u64,
    );
    // the pinned reads are the only adjacency scans here
    let reads = phase.reads;
    for (metric, name) in [
        (
            "gs-gart.version_check_scans_per_exec",
            "gart.version_check_scans",
        ),
        ("gs-gart.fence_skips_per_exec", "gart.fence_skips"),
        ("gs-gart.tombstone_scans_per_exec", "gart.tombstone_scans"),
    ] {
        out.metric(metric, per(counter(name), reads), "count", reads);
    }
}
