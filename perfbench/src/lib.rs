//! `gs-perfbench`: one benchmark for the Flex stack's serving reads,
//! transactional writes and analytics, with per-layer attribution.
//!
//! A run executes one named workload from a seed for a fixed number of
//! seconds, checks its outputs, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced). See `README.md` in this
//! directory for the workloads, metrics and how to run it.

pub mod adapters;
pub mod analytics;
pub mod gart_write;
pub mod serve;
pub mod stats;

use std::path::PathBuf;

use stats::Outcome;

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["serve-read", "gart-write", "analytics"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The GRIN methods whose calls per execute are per-layer metrics: those
/// serve-read calls, plus the fast paths an engine change would start
/// calling (`internal_id` for point lookups, `adjacent_slice` and `degree`
/// for expansion and counting). The traced run prints the other methods'
/// counts for reading only.
pub const GATED_GRIN_METHODS: [&str; 9] = [
    "capabilities",
    "schema",
    "for_each_adjacent",
    "vertex_property",
    "edge_property",
    "vertices_by_property",
    "internal_id",
    "adjacent_slice",
    "degree",
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// a workload leaves idle reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 28] = [
        ("gs-serve.plan_cache.hit_ratio", "ratio"),
        ("gs-serve.plan_cache.lookups", "count"),
        ("gs-serve.result_cache.hit_ratio", "ratio"),
        ("gs-serve.result_cache.lookups", "count"),
        ("gs-serve.shed", "count"),
        ("gs-serve.self_us", "us"),
        ("gs-lang.compiles_per_1k_reads", "count"),
        ("gs-lang.compiles", "count"),
        ("gs-lang.parse_us", "us"),
        ("gs-optimizer.optimize_us", "us"),
        ("gs-ir.verify_us", "us"),
        ("gs-ir.cost_us", "us"),
        ("gs-hiactor.prepare_us", "us"),
        ("gs-hiactor.execute_us.point", "us"),
        ("gs-hiactor.execute_us.hop", "us"),
        ("gs-hiactor.execute_us.fraud", "us"),
        ("gs-hiactor.executes", "count"),
        ("gs-hiactor.queue_wait_us", "us"),
        ("gs-gart.snapshot_us", "us"),
        ("gs-gart.version_check_scans_per_exec", "count"),
        ("gs-gart.fence_skips_per_exec", "count"),
        ("gs-gart.tombstone_scans_per_exec", "count"),
        ("gs-gart.commit_us", "us"),
        ("gs-gart.commits", "count"),
        ("gs-gart.wal.bytes_per_commit", "B"),
        ("gs-gart.wal.checkpoints", "count"),
        ("gs-gart.checkpoint_us", "us"),
        ("trace.unattributed_pct", "%"),
    ];
    let grape: [(&str, &str); 16] = [
        ("gs-grape.passes", "count"),
        ("gs-grape.load_s", "s"),
        ("gs-grape.load.edges", "count"),
        ("gs-grape.pagerank_s", "s"),
        ("gs-grape.wcc_s", "s"),
        ("gs-grape.bfs_s", "s"),
        ("gs-grape.supersteps", "count"),
        ("gs-grape.msgs_sent", "count"),
        ("gs-grape.msg_bytes_encoded", "B"),
        ("gs-grape.exchange_stall_ms", "ms"),
        ("gs-grape.superstep_skew_us", "us"),
        ("gs-grape.steal_ratio", "ratio"),
        ("gs-grape.steal_attempts", "count"),
        ("gs-grape.pull_steps", "count"),
        ("gs-graph.topology_bytes", "B"),
        ("trace.overhead_pct", "%"),
    ];
    let grin = GATED_GRIN_METHODS
        .iter()
        .map(|m| (format!("gs-grin.calls_per_exec.{m}"), "count"));
    fixed
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(grin)
        .chain(grape.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`;
/// unknown flags, unknown workloads and malformed values are errors.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (known: {WORKLOADS:?})"));
                }
                workload = Some(w.clone());
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

/// Runs a workload and fills in the metric set the run owes: every
/// end-to-end metric untraced, every per-layer metric traced.
pub fn run(args: &Args, work_dir: PathBuf) -> Outcome {
    let mut out = match args.workload.as_str() {
        "serve-read" => serve::run(&serve::Params::new(args.seed, args.seconds, args.trace)),
        "gart-write" => gart_write::run(&gart_write::Params::new(
            args.seed,
            args.seconds,
            args.trace,
            work_dir,
        )),
        _ => analytics::run(&analytics::Params::new(args.seed, args.seconds, args.trace)),
    };
    out.notes.push(format!(
        "available_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    if args.trace {
        complete(&mut out, per_layer());
    } else {
        let owed = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        complete(&mut out, owed);
    }
    out
}

/// Orders the outcome's metrics as `owed`, adding a 0 for any the
/// workload did not measure and moving any other into the read-only part.
fn complete(out: &mut Outcome, owed: Vec<(String, &'static str)>) {
    let mut have = std::mem::take(&mut out.metrics);
    for (name, unit) in owed {
        match have.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.push(have.remove(i)),
            None => out.metric(&name, 0.0, unit, 0),
        }
    }
    out.extra.append(&mut have);
}
