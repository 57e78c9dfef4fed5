//! Cost-analysis estimator quality + soundness check (BENCH_cost.json).

use gs_bench::util::Cli;

const USAGE: &str = "\
usage: costcheck [--deny] [--out PATH]
  (no flags)   full run, writes BENCH_cost.json
  --deny       fail on clean-corpus C-errors, soundness violations,
               or missed pathological codes
  --out PATH   output path (default BENCH_cost.json)
";

fn main() {
    let cli = Cli::from_env(USAGE, &["--deny"], &["--out"], 0);
    let out = cli.value("--out", "BENCH_cost.json".to_string());
    gs_telemetry::install(gs_telemetry::Registry::new());
    let code = gs_bench::costcheck::run_cli(cli.flag("--deny"), &out);
    print!("{}", gs_telemetry::global().text_report());
    std::process::exit(code);
}
