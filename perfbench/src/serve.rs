//! The serving workload `serve-read`: the §8 fraud read mix through
//! `gs_serve::Server` over HiActor and a GART snapshot. Two closed-loop
//! clients draw accounts Zipf(1.1) from an account space far larger than
//! the plan cache (128) and the result cache (512), so compile, both
//! caches and execution all do work.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_datagen::apps::fraud_graph;
use gs_gart::GartStore;
use gs_graph::schema::GraphSchema;
use gs_graph::{GraphError, Value};
use gs_hiactor::QueryService;
use gs_ir::{cost_physical, verify_physical, CostBudget, QueryEngine, Record, ReferenceEngine};
use gs_lang::{parse_cypher, Frontend};
use gs_optimizer::Optimizer;
use gs_serve::{GartServeStore, Priority, ServeConfig, ServeStore, Server, ServerStats};
use gs_telemetry::Registry;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::adapters::{take_trace, GrinTally, ReqTrace, TimedEngine, TimedStore, GRIN_METHODS};
use crate::stats::{median, mix, peak_rss_mb, per, quantile, Digest, Outcome};

/// HiActor shard threads (capped at the host's two cores).
pub const SHARDS: usize = 2;
/// Plan- and result-cache capacities the server runs with (the
/// `gs_serve::ServeConfig` defaults, restated so the report can size the
/// key space against them).
pub const PLAN_CACHE: usize = 128;
pub const RESULT_CACHE: usize = 512;
/// One read in this many (a seeded choice by operation index) is kept for
/// the output check.
const SAMPLE_EVERY: u64 = 32;
/// At most this many kept reads, spread evenly over the phase's operation
/// indices, are re-executed on the reference engine per phase.
const SAMPLE_CAP: usize = 256;
/// At most this many distinct compiled statements are replayed to time
/// the compile stages.
const REPLAY_CAP: usize = 1500;
/// Tolerance for the traced reconciliation: the attributed parts of the
/// request span must add up to it within this share.
pub const RECONCILE_TOLERANCE_PCT: f64 = 15.0;

const TEMPLATES: [(&str, &str, Priority); 3] = [
    ("point", "checkout", Priority::High),
    ("hop", "analytics", Priority::Normal),
    ("fraud", "risk", Priority::Low),
];

/// The Cypher text of a template for one account.
pub fn template_text(template: u8, account: u64) -> String {
    match template {
        0 => format!("MATCH (v:Account {{id: {account}}}) RETURN v"),
        1 => format!(
            "MATCH (v:Account {{id: {account}}})-[:KNOWS]-(f:Account) \
             RETURN v, COUNT(f) AS deg"
        ),
        _ => format!(
            "MATCH (v:Account {{id: {account}}})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Account) \
             WHERE s.id IN $SEEDS AND b1.date - b2.date < 5 AND b2.date - b1.date < 5 \
             WITH v, COUNT(s) AS cnt1 \
             MATCH (v)-[:KNOWS]-(f:Account), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(s2:Account) \
             WHERE s2.id IN $SEEDS \
             WITH v, cnt1, COUNT(s2) AS cnt2 \
             WHERE 2 * cnt1 + 1 * cnt2 > 3 \
             RETURN v"
        ),
    }
}

/// Sizes and knobs of a serving run. [`Params::new`] gives the sizes the
/// benchmark runs at; tests shrink them.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Measured seconds (split evenly between the plain and the traced
    /// phase when `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    /// Closed-loop reader threads.
    pub clients: usize,
    /// Stops each phase after this many reads instead of on the clock.
    pub max_ops: Option<u64>,
    /// Set-ups per run (data generation, store load, server build and
    /// warm-up): the first half before the measured phase, which runs on
    /// the last of them, the rest after it. `setup_s` is their median, so
    /// it samples the host at both ends of the run.
    pub setup_reps: usize,
    pub accounts: usize,
    pub items: usize,
    pub orders: usize,
    /// Length of the generated read schedule (clients wrap around it).
    pub schedule_len: usize,
    /// Reads run single-threaded at the end of each set-up.
    pub warmup_ops: usize,
}

impl Params {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            clients: 2,
            max_ops: None,
            setup_reps: 8,
            accounts: 20_000,
            items: 2_000,
            orders: 80_000,
            schedule_len: 1 << 17,
            warmup_ops: 32,
        }
    }
}

/// One scheduled read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub template: u8,
    pub account: u32,
}

/// The deterministic operation schedule of a run.
pub struct Schedule {
    pub reads: Vec<Op>,
}

impl Schedule {
    /// Generates the schedule from the seed: a 60/30/10 point/hop/fraud
    /// mix over Zipf(1.1)-ranked accounts.
    pub fn generate(p: &Params) -> Self {
        let space = p.accounts;
        let mut cdf = Vec::with_capacity(space);
        let mut acc = 0.0;
        for r in 1..=space {
            acc += 1.0 / (r as f64).powf(1.1);
            cdf.push(acc);
        }
        let mut rng = Pcg64Mcg::new((p.seed as u128) << 32 | 0x5e7e);
        let reads = (0..p.schedule_len)
            .map(|_| {
                let mix: f64 = rng.gen_range(0.0..1.0);
                let template = if mix < 0.6 {
                    0
                } else if mix < 0.9 {
                    1
                } else {
                    2
                };
                let z = rng.gen_range(0.0..acc);
                let rank = cdf.partition_point(|&c| c < z).min(space - 1);
                Op {
                    template,
                    account: rank as u32,
                }
            })
            .collect();
        Self { reads }
    }

    /// FNV-1a digest over every scheduled operation.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for op in &self.reads {
            d.eat(op.template as u64);
            d.eat(op.account as u64);
        }
        d.value()
    }

    /// Share of the read schedule's first `n` operations that are
    /// distinct statements (what an unbounded cache would miss).
    pub fn distinct_share(&self, n: usize) -> f64 {
        let n = n.min(self.reads.len());
        let mut seen = std::collections::HashSet::new();
        for op in &self.reads[..n] {
            seen.insert((op.template, op.account));
        }
        per(seen.len() as f64, n as u64)
    }
}

/// The loaded store and what reads need to run against it.
struct World {
    store: Arc<GartStore>,
    params: HashMap<String, Value>,
}

fn load_world(p: &Params) -> World {
    let workload = fraud_graph(p.accounts, p.items, p.orders, 0, p.seed);
    let seeds: Vec<Value> = workload
        .seeds
        .iter()
        .map(|&s| Value::Int(s as i64))
        .collect();
    let mut params = HashMap::new();
    params.insert("SEEDS".to_string(), Value::List(seeds));
    World {
        store: GartStore::from_data(&workload.data).expect("fraud graph loads"),
        params,
    }
}

fn build_server(world: &World, tally: Option<Arc<GrinTally>>) -> Arc<Server> {
    let plain_store = Box::new(GartServeStore::new(Arc::clone(&world.store)));
    let (engine, store): (Box<dyn QueryEngine>, Box<dyn ServeStore>) = match tally {
        None => (Box::new(QueryService::new(SHARDS)), plain_store),
        Some(t) => (
            Box::new(TimedEngine::new(Box::new(QueryService::new(SHARDS)))),
            Box::new(TimedStore::new(plain_store, t)),
        ),
    };
    let config = ServeConfig {
        plan_cache_capacity: PLAN_CACHE,
        result_cache_capacity: RESULT_CACHE,
        ..ServeConfig::default()
    };
    Arc::new(Server::new(engine, store, config))
}

/// Runs the last `warmup_ops` scheduled reads single-threaded.
fn warm_up(server: &Arc<Server>, world: &World, sched: &Schedule, n: usize) {
    let sessions = sessions(server);
    let len = sched.reads.len();
    for op in &sched.reads[len - n.min(len)..] {
        let text = template_text(op.template, op.account as u64);
        let params = params_for(world, op.template);
        let _ = sessions[op.template as usize].query(Frontend::Cypher, &text, &params);
    }
}

fn sessions(server: &Arc<Server>) -> Vec<gs_serve::Session> {
    TEMPLATES
        .iter()
        .map(|(_, tenant, prio)| server.session(tenant, *prio))
        .collect()
}

fn params_for(world: &World, template: u8) -> HashMap<String, Value> {
    if template == 2 {
        world.params.clone()
    } else {
        HashMap::new()
    }
}

/// Outcome of one read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Ok,
    Shed,
    Error,
}

/// One completed read as the client saw it.
#[derive(Clone, Copy, Debug)]
struct Sample {
    pos: usize,
    template: u8,
    ns: u64,
    /// Completion time since the phase started.
    done_ns: u64,
    status: Status,
    trace: ReqTrace,
}

/// A read kept for the output check: its operation index, the versions
/// bracketing it and the rows it returned.
struct Kept {
    index: u64,
    op: Op,
    versions: (u64, u64),
    rows: Arc<Vec<Record>>,
}

struct Phase {
    samples: Vec<Sample>,
    kept: Vec<Kept>,
    /// Reads completed in each whole second of the phase (all of them,
    /// per second, when it is shorter than a second).
    per_second: Vec<f64>,
    wall_s: f64,
    cache: CacheDelta,
}

impl Phase {
    /// Two segments as one phase.
    fn merge(mut self, other: Phase) -> Phase {
        self.samples.extend(other.samples);
        self.kept.extend(other.kept);
        self.per_second.extend(other.per_second);
        self.wall_s += other.wall_s;
        self.cache = CacheDelta {
            plan_hits: self.cache.plan_hits + other.cache.plan_hits,
            plan_misses: self.cache.plan_misses + other.cache.plan_misses,
            result_hits: self.cache.result_hits + other.cache.result_hits,
            result_misses: self.cache.result_misses + other.cache.result_misses,
        };
        self
    }
}

/// Cache lookups the server counted during a phase.
#[derive(Clone, Copy, Debug, Default)]
struct CacheDelta {
    plan_hits: u64,
    plan_misses: u64,
    result_hits: u64,
    result_misses: u64,
}

impl CacheDelta {
    fn between(before: &ServerStats, after: &ServerStats) -> Self {
        Self {
            plan_hits: after.plan_hits - before.plan_hits,
            plan_misses: after.plan_misses - before.plan_misses,
            result_hits: after.result_hits - before.result_hits,
            result_misses: after.result_misses - before.result_misses,
        }
    }
}

/// Runs the closed-loop clients for the phase's budget.
fn run_phase(
    p: &Params,
    server: &Arc<Server>,
    world: &World,
    sched: &Schedule,
    seconds: f64,
) -> Phase {
    let next = AtomicU64::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let before = server.stats();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut kept = Vec::new();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..p.clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let sessions = sessions(server);
                    let mut samples = Vec::new();
                    let mut kept: Vec<Kept> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let over = match p.max_ops {
                            Some(m) => i >= m,
                            None => start.elapsed() >= budget,
                        };
                        if over {
                            break;
                        }
                        let pos = i as usize % sched.reads.len();
                        let op = sched.reads[pos];
                        let text = template_text(op.template, op.account as u64);
                        let params = params_for(world, op.template);
                        let session = &sessions[op.template as usize];
                        take_trace();
                        let v0 = world.store.committed_version();
                        let t = Instant::now();
                        let res = session.query(Frontend::Cypher, &text, &params);
                        let ns = t.elapsed().as_nanos() as u64;
                        let v1 = world.store.committed_version();
                        let status = match &res {
                            Ok(_) => Status::Ok,
                            Err(GraphError::Overloaded { .. } | GraphError::Unavailable(_)) => {
                                Status::Shed
                            }
                            Err(_) => Status::Error,
                        };
                        samples.push(Sample {
                            pos,
                            template: op.template,
                            ns,
                            done_ns: (t - start).as_nanos() as u64 + ns,
                            status,
                            trace: take_trace(),
                        });
                        if let Ok(rows) = res {
                            if mix(p.seed ^ i).is_multiple_of(SAMPLE_EVERY) {
                                kept.push(Kept {
                                    index: i,
                                    op,
                                    versions: (v0, v1),
                                    rows,
                                });
                            }
                        }
                    }
                    (samples, kept)
                })
            })
            .collect();
        for c in clients {
            let (s, k) = c.join().expect("client thread");
            samples.extend(s);
            kept.extend(k);
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    Phase {
        per_second: per_second(&samples, wall_s),
        samples,
        kept: spread_evenly(kept, SAMPLE_CAP),
        wall_s,
        cache: CacheDelta::between(&before, &server.stats()),
    }
}

/// Successful reads completed in each whole second of a phase, so that a
/// few seconds of host interference do not move their median; the plain
/// rate when the phase is shorter than a second.
fn per_second(samples: &[Sample], wall_s: f64) -> Vec<f64> {
    let ok = samples.iter().filter(|s| s.status == Status::Ok);
    let whole = wall_s.floor() as usize;
    if whole == 0 {
        return vec![ok.count() as f64 / wall_s];
    }
    let mut counts = vec![0f64; whole];
    for s in ok {
        if let Some(c) = counts.get_mut((s.done_ns / 1_000_000_000) as usize) {
            *c += 1.0;
        }
    }
    counts
}

/// At most `cap` of the kept reads, evenly spaced in operation-index
/// order, so the check covers the whole phase and every client.
fn spread_evenly(mut kept: Vec<Kept>, cap: usize) -> Vec<Kept> {
    kept.sort_by_key(|k| k.index);
    if kept.len() <= cap {
        return kept;
    }
    let step = kept.len() as f64 / cap as f64;
    let mut picked = Vec::with_capacity(cap);
    for (j, k) in kept.into_iter().enumerate() {
        if picked.len() < cap && j as f64 >= picked.len() as f64 * step {
            picked.push(k);
        }
    }
    picked
}

fn canonical(rows: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Re-executes the kept reads on the reference engine at the versions
/// they ran at; returns how many disagree.
fn check_reads(world: &World, kept: &[Kept]) -> u64 {
    let engine = ReferenceEngine::default();
    let optimizer = Optimizer::rbo_only();
    let schema = world.store.schema();
    let mut wrong = 0;
    for k in kept {
        let text = template_text(k.op.template, k.op.account as u64);
        let params = params_for(world, k.op.template);
        let Ok(compiled) = Frontend::Cypher.compile_with(&text, schema, &params, &optimizer) else {
            wrong += 1;
            continue;
        };
        let served = canonical(&k.rows);
        let matches = (k.versions.0..=k.versions.1).any(|v| {
            let snap = world.store.snapshot_at(v);
            engine
                .execute(&compiled.physical, &snap)
                .map(|rows| canonical(&rows) == served)
                .unwrap_or(false)
        });
        if !matches {
            wrong += 1;
        }
    }
    wrong
}

fn ns_quantile_us(mut ns: Vec<u64>, q: f64) -> (f64, u64) {
    ns.sort_unstable();
    let v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    (quantile(&v, q), v.len() as u64)
}

fn template_ns(samples: &[Sample], t: Option<u8>) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| s.status == Status::Ok && t.is_none_or(|t| s.template == t))
        .map(|s| s.ns)
        .collect()
}

/// Runs the serve-read workload end to end.
pub fn run(p: &Params) -> Outcome {
    let sched = Schedule::generate(p);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "workload=serve-read seed={} schedule_digest={:#018x} reads_scheduled={}",
        p.seed,
        sched.digest(),
        sched.reads.len(),
    ));
    out.notes.push(format!(
        "threads: {} client(s) + {SHARDS} HiActor shards; accounts={} \
         plan_cache={PLAN_CACHE} result_cache={RESULT_CACHE}",
        p.clients, p.accounts,
    ));

    let reps = p.setup_reps.max(1);
    let before = reps.div_ceil(2);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..before {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(set_up(p, &sched));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (world, plain) = kept.expect("at least one set-up");
    if !p.trace {
        let phase = run_phase(p, &plain, &world, &sched, p.seconds);
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        settle(&world, &phase, &mut out);
        report_end_to_end(&phase, &mut out, &sched);
        drop((world, plain));
        for _ in before..reps {
            let t = Instant::now();
            let again = set_up(p, &sched);
            setups.push(t.elapsed().as_secs_f64());
            drop(again);
        }
        out.metric("setup_s", median(&setups), "s", setups.len() as u64);
    } else {
        // plain and traced segments in ABBA order, so drift over the run
        // does not read as tracing overhead
        let registry = Registry::new();
        let tally = Arc::new(GrinTally::default());
        let traced = build_server(&world, Some(Arc::clone(&tally)));
        warm_up(&traced, &world, &sched, p.warmup_ops);
        take_trace();
        let quarter = p.seconds / 4.0;
        let measure = |server: &Arc<Server>| run_phase(p, server, &world, &sched, quarter);
        let a1 = measure(&plain);
        gs_telemetry::install(registry.clone());
        // count only the measured segments, not the traced warm-up
        registry.reset();
        tally.reset();
        let b1 = measure(&traced);
        let b2 = measure(&traced);
        gs_telemetry::uninstall();
        let a2 = measure(&plain);
        let (plain_phase, traced_phase) = (a1.merge(a2), b1.merge(b2));
        let plain_tput = settle(&world, &plain_phase, &mut out);
        let traced_tput = settle(&world, &traced_phase, &mut out);
        report_per_layer(&world, &traced_phase, &registry, &tally, &sched, &mut out);
        out.metric(
            "trace.overhead_pct",
            (plain_tput / traced_tput - 1.0) * 100.0,
            "%",
            traced_phase.samples.len() as u64,
        );
    }
    out
}

/// One set-up: data generation, store load, server build and warm-up.
fn set_up(p: &Params, sched: &Schedule) -> (World, Arc<Server>) {
    let world = load_world(p);
    let server = build_server(&world, None);
    warm_up(&server, &world, sched, p.warmup_ops);
    (world, server)
}

/// Checks a phase's sampled reads and adds its attempts and failures to
/// the outcome; returns its read throughput.
fn settle(world: &World, phase: &Phase, out: &mut Outcome) -> f64 {
    let wrong = check_reads(world, &phase.kept);
    out.notes.push(format!(
        "output check: {} sampled reads re-executed on the reference engine, {wrong} mismatched",
        phase.kept.len()
    ));
    let failed_reads = phase
        .samples
        .iter()
        .filter(|s| s.status != Status::Ok)
        .count() as u64;
    out.attempted += phase.samples.len() as u64;
    out.failed += failed_reads + wrong;
    if wrong > 0 {
        out.correct = false;
    }
    let reads_ok = phase.samples.len() as u64 - failed_reads;
    reads_ok as f64 / phase.wall_s
}

fn report_end_to_end(phase: &Phase, out: &mut Outcome, sched: &Schedule) {
    let ok = template_ns(&phase.samples, None);
    let reads = ok.len() as u64;
    out.metric(
        "throughput_per_s",
        median(&phase.per_second),
        "1/s",
        phase.per_second.len() as u64,
    );
    let (p50, n) = ns_quantile_us(ok.clone(), 0.5);
    out.metric("latency_p50_us", p50, "us", n);
    out.extra("reads_per_s", reads as f64 / phase.wall_s, "1/s", reads);
    for (t, (name, _, _)) in TEMPLATES.iter().enumerate() {
        let (v, n) = ns_quantile_us(template_ns(&phase.samples, Some(t as u8)), 0.5);
        out.extra(&format!("{name}_p50_us"), v, "us", n);
    }
    for (name, q) in [("read_p90_us", 0.9), ("read_p99_us", 0.99)] {
        let (v, n) = ns_quantile_us(ok.clone(), q);
        out.extra(name, v, "us", n);
    }
    let c = &phase.cache;
    let plan = (c.plan_misses, c.plan_hits);
    let result = (c.result_misses, c.result_hits);
    out.extra(
        "plan_cache_miss_share",
        per(plan.0 as f64, plan.0 + plan.1),
        "ratio",
        plan.0 + plan.1,
    );
    out.extra(
        "result_cache_miss_share",
        per(result.0 as f64, result.0 + result.1),
        "ratio",
        result.0 + result.1,
    );
    out.extra(
        "schedule_distinct_share",
        sched.distinct_share(phase.samples.len()),
        "ratio",
        phase.samples.len() as u64,
    );
    out.extra(
        "error_ratio",
        per(out.failed as f64, out.attempted),
        "ratio",
        out.attempted,
    );
}

/// Per-compile stage times, replayed through the public functions.
#[derive(Default, Clone, Copy)]
struct StageNs {
    parse: f64,
    optimize: f64,
    verify: f64,
    cost: f64,
}

impl StageNs {
    fn total(&self) -> f64 {
        self.parse + self.optimize + self.verify + self.cost
    }
}

/// Replays one statement's compile: parse (with lowering), optimize,
/// verify and cost, each the median of three runs.
fn replay_compile(schema: &GraphSchema, text: &str, params: &HashMap<String, Value>) -> StageNs {
    let optimizer = Optimizer::rbo_only();
    let budget = CostBudget::default();
    let mut runs: [Vec<f64>; 4] = Default::default();
    for _ in 0..3 {
        let t = Instant::now();
        let Ok(logical) = parse_cypher(text, schema, params) else {
            return StageNs::default();
        };
        runs[0].push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let Ok(physical) = optimizer.optimize(&logical) else {
            return StageNs::default();
        };
        runs[1].push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let _ = verify_physical(&physical, schema).check("cypher");
        runs[2].push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(cost_physical(&physical, None, &budget));
        runs[3].push(t.elapsed().as_nanos() as f64);
    }
    StageNs {
        parse: median(&runs[0]),
        optimize: median(&runs[1]),
        verify: median(&runs[2]),
        cost: median(&runs[3]),
    }
}

fn hist_sum(registry: &Registry, name: &str) -> (u64, u64) {
    let h = registry.histogram(name);
    (h.sum(), h.count())
}

fn report_per_layer(
    world: &World,
    phase: &Phase,
    registry: &Registry,
    tally: &GrinTally,
    sched: &Schedule,
    out: &mut Outcome,
) {
    let samples = &phase.samples;
    let reads = samples.len() as u64;
    let c = &phase.cache;

    // gs-serve
    let plan_hits = c.plan_hits;
    let plan_lookups = plan_hits + c.plan_misses;
    out.metric(
        "gs-serve.plan_cache.hit_ratio",
        per(plan_hits as f64, plan_lookups),
        "ratio",
        plan_lookups,
    );
    out.metric(
        "gs-serve.plan_cache.lookups",
        plan_lookups as f64,
        "count",
        plan_lookups,
    );
    let res_hits = c.result_hits;
    let res_lookups = res_hits + c.result_misses;
    out.metric(
        "gs-serve.result_cache.hit_ratio",
        per(res_hits as f64, res_lookups),
        "ratio",
        res_lookups,
    );
    out.metric(
        "gs-serve.result_cache.lookups",
        res_lookups as f64,
        "count",
        res_lookups,
    );
    let shed = samples.iter().filter(|s| s.status == Status::Shed).count() as u64;
    out.metric("gs-serve.shed", shed as f64, "count", reads);
    // serve's own time, isolated on requests that neither compiled nor
    // executed (result-cache hits): the span minus the snapshot call
    let self_ns: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == Status::Ok && s.trace.prepares == 0 && s.trace.executes == 0)
        .map(|s| s.ns.saturating_sub(s.trace.snapshot_ns) as f64)
        .collect();
    let serve_self = median(&self_ns);
    out.metric(
        "gs-serve.self_us",
        serve_self / 1e3,
        "us",
        self_ns.len() as u64,
    );

    // gs-lang / gs-optimizer / gs-ir: replay every compiled statement
    let schema = world.store.schema();
    let mut compiled: BTreeMap<(u8, u32), u64> = BTreeMap::new();
    let mut order = Vec::new();
    for s in samples.iter().filter(|s| s.trace.prepares > 0) {
        let op = sched.reads[s.pos];
        let e = compiled.entry((op.template, op.account)).or_insert(0);
        if *e == 0 {
            order.push((op.template, op.account));
        }
        *e += s.trace.prepares;
    }
    let compiles: u64 = compiled.values().sum();
    let mut stage_of: HashMap<(u8, u32), StageNs> = HashMap::new();
    for &(t, a) in order.iter().take(REPLAY_CAP) {
        let text = template_text(t, a as u64);
        stage_of.insert((t, a), replay_compile(schema, &text, &params_for(world, t)));
    }
    let mut sum = StageNs::default();
    let mut replayed = 0u64;
    for (k, st) in &stage_of {
        let n = compiled[k];
        replayed += n;
        sum.parse += st.parse * n as f64;
        sum.optimize += st.optimize * n as f64;
        sum.verify += st.verify * n as f64;
        sum.cost += st.cost * n as f64;
    }
    out.metric(
        "gs-lang.compiles_per_1k_reads",
        per(compiles as f64 * 1e3, reads),
        "count",
        reads,
    );
    out.metric("gs-lang.compiles", compiles as f64, "count", compiles);
    out.metric(
        "gs-lang.parse_us",
        per(sum.parse, replayed) / 1e3,
        "us",
        replayed,
    );
    out.metric(
        "gs-optimizer.optimize_us",
        per(sum.optimize, replayed) / 1e3,
        "us",
        replayed,
    );
    out.metric(
        "gs-ir.verify_us",
        per(sum.verify, replayed) / 1e3,
        "us",
        replayed,
    );
    out.metric(
        "gs-ir.cost_us",
        per(sum.cost, replayed) / 1e3,
        "us",
        replayed,
    );
    let prep_ns: u64 = samples.iter().map(|s| s.trace.prepare_ns).sum();
    let prepares: u64 = samples.iter().map(|s| s.trace.prepares).sum();
    out.metric(
        "gs-hiactor.prepare_us",
        per(prep_ns as f64, prepares) / 1e3,
        "us",
        prepares,
    );

    // gs-hiactor
    let executes: u64 = samples.iter().map(|s| s.trace.executes).sum();
    for (t, (name, _, _)) in TEMPLATES.iter().enumerate() {
        let ex: Vec<f64> = samples
            .iter()
            .filter(|s| s.template == t as u8 && s.trace.executes == 1)
            .map(|s| s.trace.execute_ns as f64 / 1e3)
            .collect();
        out.metric(
            &format!("gs-hiactor.execute_us.{name}"),
            median(&ex),
            "us",
            ex.len() as u64,
        );
    }
    out.metric("gs-hiactor.executes", executes as f64, "count", executes);
    let exec_ns: u64 = samples.iter().map(|s| s.trace.execute_ns).sum();
    let (proc_ns, _) = hist_sum(registry, "hiactor.proc_ns{name=prepared}");
    out.metric(
        "gs-hiactor.queue_wait_us",
        per(exec_ns.saturating_sub(proc_ns) as f64, executes) / 1e3,
        "us",
        executes,
    );

    // gs-grin / gs-gart reads
    let snaps: Vec<f64> = samples
        .iter()
        .filter(|s| s.trace.snapshot_ns > 0)
        .map(|s| s.trace.snapshot_ns as f64)
        .collect();
    out.metric(
        "gs-gart.snapshot_us",
        per(snaps.iter().sum(), snaps.len() as u64) / 1e3,
        "us",
        snaps.len() as u64,
    );
    for (name, calls) in GRIN_METHODS.iter().zip(tally.totals()) {
        out.metric(
            &format!("gs-grin.calls_per_exec.{name}"),
            per(calls as f64, executes),
            "count",
            executes,
        );
    }
    for (metric, counter) in [
        (
            "gs-gart.version_check_scans_per_exec",
            "gart.version_check_scans",
        ),
        ("gs-gart.fence_skips_per_exec", "gart.fence_skips"),
        ("gs-gart.tombstone_scans_per_exec", "gart.tombstone_scans"),
    ] {
        out.metric(
            metric,
            per(registry.counter_value(counter) as f64, executes),
            "count",
            executes,
        );
    }

    // reconciliation: every request span is covered by snapshot, prepare,
    // execute, the replayed compile and serve's own time
    let mut span = 0f64;
    let mut attributed = 0f64;
    for s in samples.iter().filter(|s| s.status == Status::Ok) {
        let op = sched.reads[s.pos];
        let compile = stage_of
            .get(&(op.template, op.account))
            .map(|st| st.total() * s.trace.prepares as f64);
        let Some(compile) = compile.or((s.trace.prepares == 0).then_some(0.0)) else {
            continue; // compiled but beyond the replay cap
        };
        span += s.ns as f64;
        attributed += serve_self
            + compile
            + (s.trace.snapshot_ns + s.trace.prepare_ns + s.trace.execute_ns) as f64;
    }
    let unattributed = per((span - attributed) * 100.0, 1) / span.max(1.0);
    out.metric("trace.unattributed_pct", unattributed, "%", reads);
    out.notes.push(format!(
        "reconciliation: attributed {:.1}% of the request span (tolerance ±{RECONCILE_TOLERANCE_PCT}%)",
        100.0 - unattributed
    ));
    if unattributed.abs() > RECONCILE_TOLERANCE_PCT {
        out.correct = false;
    }
}
