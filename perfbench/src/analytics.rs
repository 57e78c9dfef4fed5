//! The analytics workload: GRAPE over a GART snapshot of a seeded R-MAT
//! graph.
//!
//! One pass loads two edge-cut fragments through GRIN
//! (`GrapeEngine::from_grin`, symmetrized so every algorithm sees the
//! same undirected graph), then runs PageRank for a fixed number of
//! iterations, WCC, and direction-optimizing BFS from the vertex of
//! highest degree. The serving layers do nothing here; GRIN bulk scans,
//! compute, message exchange and barriers carry the load.

use std::time::Instant;

use gs_datagen::rmat::{generate, RmatConfig};
use gs_gart::{GartSnapshot, GartStore};
use gs_grape::algorithms::{bfs, pagerank, wcc};
use gs_grape::traversal::bfs_direction_optimizing;
use gs_grape::{GrapeEngine, GrinProjection};
use gs_graph::{PropertyGraphData, VId};
use gs_telemetry::Registry;

use crate::stats::{median, peak_rss_mb, per, quantile, Digest, Outcome};

/// GRAPE fragments (capped at the host's two cores).
pub const FRAGMENTS: usize = 2;
pub const PAGERANK_ITERS: usize = 10;
const DAMPING: f64 = 0.85;

/// Sizes and knobs of an analytics run.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Stops each phase after this many passes instead of on the clock.
    pub max_passes: Option<u64>,
    /// Set-ups per run (R-MAT generation and GART load): the first half
    /// before the measured phase, which runs on the last of them, the rest
    /// after it. `setup_s` is their median, so it samples the host at both
    /// ends of the run.
    pub setup_reps: usize,
    /// R-MAT scale: 2^scale vertices, 16 · 2^scale edges.
    pub scale: u32,
}

impl Params {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            max_passes: None,
            setup_reps: 6,
            scale: 15,
        }
    }
}

struct World {
    n: usize,
    edges: Vec<(u64, u64)>,
    snapshot: GartSnapshot,
    /// Global id of the highest-degree vertex (the BFS source).
    source: VId,
}

fn load_world(p: &Params) -> World {
    let mut cfg = RmatConfig::graph500(p.scale);
    cfg.seed = p.seed;
    let el = generate(&cfg);
    let n = el.vertex_count();
    let edges: Vec<(u64, u64)> = el.edges().iter().map(|&(s, d)| (s.0, d.0)).collect();
    drop(el);
    let store = GartStore::from_data(&PropertyGraphData::from_edge_list(n, &edges))
        .expect("R-MAT graph loads");
    let snapshot = store.snapshot();
    let mut degree = vec![0u32; n];
    for &(s, d) in &edges {
        degree[s as usize] += 1;
        degree[d as usize] += 1;
    }
    let source = (0..n)
        .max_by_key(|&v| (degree[v], std::cmp::Reverse(v)))
        .unwrap_or(0);
    World {
        n,
        edges,
        snapshot,
        source: VId(source as u64),
    }
}

/// What one pass computed, and how long each step took.
struct Pass {
    ranks: Vec<f64>,
    components: Vec<u64>,
    depths: Vec<u64>,
    load_s: f64,
    pagerank_s: f64,
    wcc_s: f64,
    bfs_s: f64,
    total_s: f64,
    topology_bytes: usize,
}

fn projection() -> GrinProjection {
    GrinProjection::all().symmetrized()
}

fn run_pass(world: &World) -> Pass {
    let t = Instant::now();
    let (engine, _space) =
        GrapeEngine::from_grin(&world.snapshot, &projection(), FRAGMENTS).expect("fragments load");
    let load_s = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let ranks = pagerank(&engine, DAMPING, PAGERANK_ITERS);
    let pagerank_s = t1.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let components = wcc(&engine);
    let wcc_s = t1.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let depths = bfs_direction_optimizing(&engine, world.source);
    let bfs_s = t1.elapsed().as_secs_f64();
    let total_s = t.elapsed().as_secs_f64();
    let topology_bytes = engine
        .fragments
        .iter()
        .map(|f| f.out.heap_bytes() + f.inn.heap_bytes())
        .sum();
    Pass {
        ranks,
        components,
        depths,
        load_s,
        pagerank_s,
        wcc_s,
        bfs_s,
        total_s,
        topology_bytes,
    }
}

fn ranks_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-12 + 1e-9 * x.abs().max(y.abs()))
}

/// Min-id component labels by union-find over the edge list.
fn union_find_components(n: usize, edges: &[(u64, u64)]) -> Vec<u64> {
    let mut parent: Vec<u64> = (0..n as u64).collect();
    fn find(p: &mut [u64], mut x: u64) -> u64 {
        while p[x as usize] != x {
            let up = p[p[x as usize] as usize];
            p[x as usize] = up;
            x = up;
        }
        x
    }
    for &(s, d) in edges {
        let (a, b) = (find(&mut parent, s), find(&mut parent, d));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..n as u64).map(|v| find(&mut parent, v)).collect()
}

/// Checks a pass against independent references: WCC against union-find,
/// DO-BFS against Pregel BFS, PageRank against a single-fragment run.
/// Returns the names of the checks that failed.
fn check_pass(world: &World, pass: &Pass) -> Vec<&'static str> {
    let mut failed = Vec::new();
    // the fragments index vertices by GART internal id; map the edge list
    let ids: Vec<u64> = (0..world.n as u64)
        .map(|ext| {
            gs_grin::GrinGraph::internal_id(&world.snapshot, gs_graph::LabelId(0), ext)
                .map_or(u64::MAX, |v| v.0)
        })
        .collect();
    let internal: Vec<(u64, u64)> = world
        .edges
        .iter()
        .map(|&(s, d)| (ids[s as usize], ids[d as usize]))
        .collect();
    if ids.contains(&u64::MAX) || union_find_components(world.n, &internal) != pass.components {
        failed.push("wcc");
    }
    let (engine, _) =
        GrapeEngine::from_grin(&world.snapshot, &projection(), FRAGMENTS).expect("fragments load");
    if bfs(&engine, world.source) != pass.depths {
        failed.push("bfs");
    }
    drop(engine);
    let (single, _) =
        GrapeEngine::from_grin(&world.snapshot, &projection(), 1).expect("fragment loads");
    if !ranks_close(&pagerank(&single, DAMPING, PAGERANK_ITERS), &pass.ranks) {
        failed.push("pagerank");
    }
    failed
}

/// Every later pass must reproduce the checked first pass.
fn same_results(a: &Pass, b: &Pass) -> bool {
    a.components == b.components && a.depths == b.depths && ranks_close(&a.ranks, &b.ranks)
}

struct Phase {
    passes: Vec<Pass>,
    wrong: u64,
    wall_s: f64,
}

impl Phase {
    fn merge(mut self, other: Phase) -> Phase {
        self.passes.extend(other.passes);
        self.wrong += other.wrong;
        self.wall_s += other.wall_s;
        self
    }
}

fn run_phase(p: &Params, world: &World, reference: &Pass, seconds: f64) -> Phase {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut wrong = 0;
    loop {
        let over = match p.max_passes {
            Some(m) => passes.len() as u64 >= m,
            None => start.elapsed().as_secs_f64() >= seconds && !passes.is_empty(),
        };
        if over {
            break;
        }
        let pass = run_pass(world);
        if !same_results(reference, &pass) {
            wrong += 1;
        }
        // results are compared, then dropped, so memory stays flat
        passes.push(Pass {
            ranks: Vec::new(),
            components: Vec::new(),
            depths: Vec::new(),
            ..pass
        });
    }
    Phase {
        passes,
        wrong,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs the analytics workload end to end.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let reps = p.setup_reps.max(1);
    let before = reps.div_ceil(2);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..before {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(load_world(p));
        setups.push(t.elapsed().as_secs_f64());
    }
    let world = kept.expect("at least one set-up");
    let mut digest = Digest::default();
    for &(s, d) in &world.edges {
        digest.eat(s);
        digest.eat(d);
    }
    out.notes.push(format!(
        "workload=analytics seed={} schedule_digest={:#018x} rmat_scale={} vertices={} edges={} \
         bfs_source={}",
        p.seed,
        digest.value(),
        p.scale,
        world.n,
        world.edges.len(),
        world.source.0
    ));
    out.notes.push(format!(
        "threads: {FRAGMENTS} GRAPE fragment workers (harness thread waits); pass = from_grin + \
         pagerank({PAGERANK_ITERS}) + wcc + do-bfs"
    ));

    // the first pass is the checked reference (and the warm-up)
    let reference = run_pass(&world);
    let failed = check_pass(&world, &reference);
    out.notes.push(format!(
        "output check: wcc vs union-find, do-bfs vs pregel bfs, pagerank vs 1 fragment: {}",
        if failed.is_empty() {
            "ok".to_string()
        } else {
            format!("FAILED {failed:?}")
        }
    ));
    out.attempted += 1;
    if !failed.is_empty() {
        out.failed += 1;
        out.correct = false;
    }

    if !p.trace {
        let phase = run_phase(p, &world, &reference, p.seconds);
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        drop(world);
        for _ in before..reps {
            let t = Instant::now();
            let again = load_world(p);
            setups.push(t.elapsed().as_secs_f64());
            drop(again);
        }
        tally(&phase, &mut out);
        let totals: Vec<f64> = phase.passes.iter().map(|x| x.total_s).collect();
        out.metric("setup_s", median(&setups), "s", setups.len() as u64);
        let n = totals.len() as u64;
        out.metric(
            "throughput_per_s",
            n as f64 / totals.iter().sum::<f64>(),
            "1/s",
            n,
        );
        let mut sorted = totals;
        sorted.sort_by(f64::total_cmp);
        out.metric("latency_p50_us", quantile(&sorted, 0.5) * 1e6, "us", n);
        out.extra("job_s", quantile(&sorted, 0.5), "s", n);
        out.extra("job_p90_s", quantile(&sorted, 0.9), "s", n);
        out.extra(
            "error_ratio",
            per(out.failed as f64, out.attempted),
            "ratio",
            out.attempted,
        );
    } else {
        // plain and traced segments in ABBA order, so drift over the run
        // does not read as tracing overhead
        let registry = Registry::new();
        let quarter = p.seconds / 4.0;
        let a1 = run_phase(p, &world, &reference, quarter);
        gs_telemetry::install(registry.clone());
        registry.reset();
        let b1 = run_phase(p, &world, &reference, quarter);
        let b2 = run_phase(p, &world, &reference, quarter);
        gs_telemetry::uninstall();
        let a2 = run_phase(p, &world, &reference, quarter);
        let (plain, traced) = (a1.merge(a2), b1.merge(b2));
        tally(&plain, &mut out);
        tally(&traced, &mut out);
        report_per_layer(&traced, &registry, &mut out);
        let job = |ph: &Phase| median(&ph.passes.iter().map(|x| x.total_s).collect::<Vec<_>>());
        out.metric(
            "trace.overhead_pct",
            (job(&traced) / job(&plain) - 1.0) * 100.0,
            "%",
            traced.passes.len() as u64,
        );
    }
    out
}

fn tally(phase: &Phase, out: &mut Outcome) {
    out.attempted += phase.passes.len() as u64;
    out.failed += phase.wrong;
    if phase.wrong > 0 {
        out.correct = false;
    }
}

fn report_per_layer(phase: &Phase, registry: &Registry, out: &mut Outcome) {
    let passes = phase.passes.len() as u64;
    let med = |f: fn(&Pass) -> f64| median(&phase.passes.iter().map(f).collect::<Vec<_>>());
    let counter = |name: &str| registry.counter_value(name) as f64;
    out.metric("gs-grape.passes", passes as f64, "count", passes);
    out.metric("gs-grape.load_s", med(|x| x.load_s), "s", passes);
    out.metric(
        "gs-grape.load.edges",
        per(counter("grape.load.edges"), passes),
        "count",
        passes,
    );
    out.metric("gs-grape.pagerank_s", med(|x| x.pagerank_s), "s", passes);
    out.metric("gs-grape.wcc_s", med(|x| x.wcc_s), "s", passes);
    out.metric("gs-grape.bfs_s", med(|x| x.bfs_s), "s", passes);
    out.metric(
        "gs-grape.supersteps",
        per(counter("grape.supersteps"), passes),
        "count",
        passes,
    );
    out.metric(
        "gs-grape.msgs_sent",
        per(counter("grape.msgs_sent"), passes),
        "count",
        passes,
    );
    out.metric(
        "gs-grape.msg_bytes_encoded",
        per(counter("grape.msg_bytes_encoded"), passes),
        "B",
        passes,
    );
    out.metric(
        "gs-grape.exchange_stall_ms",
        per(counter("grape.exchange_stall_ns") / 1e6, passes),
        "ms",
        passes,
    );
    let traversal_steps = registry.counter_value("grape.traversal.push_steps")
        + registry.counter_value("grape.traversal.pull_steps");
    out.metric(
        "gs-grape.superstep_skew_us",
        per(counter("grape.superstep.skew") / 1e3, traversal_steps),
        "us",
        traversal_steps,
    );
    let attempts = registry.counter_value("grape.steal.attempts");
    out.metric(
        "gs-grape.steal_ratio",
        per(counter("grape.steal.stolen"), attempts),
        "ratio",
        attempts,
    );
    out.metric(
        "gs-grape.steal_attempts",
        per(attempts as f64, passes),
        "count",
        passes,
    );
    out.metric(
        "gs-grape.pull_steps",
        per(counter("grape.traversal.pull_steps"), passes),
        "count",
        passes,
    );
    let topo = phase.passes.first().map_or(0, |x| x.topology_bytes);
    out.metric("gs-graph.topology_bytes", topo as f64, "B", passes);
}
