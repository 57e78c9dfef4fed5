//! Layout × algorithm analytics benchmark (BENCH_analytics.json).

use gs_bench::util::Cli;

const USAGE: &str = "\
usage: analytics [--deny] [--seed N] [--out PATH]
  (no flags)   full run, writes BENCH_analytics.json
  --deny       fail if DO-BFS is slower than push-only BFS
  --seed N     pin the generators (default 42)
  --out PATH   output path (default BENCH_analytics.json)
";

fn main() {
    let cli = Cli::from_env(USAGE, &["--deny"], &["--seed", "--out"], 0);
    let seed = cli.value("--seed", 42u64);
    let out = cli.value("--out", "BENCH_analytics.json".to_string());
    std::process::exit(gs_bench::analytics::run_cli(cli.flag("--deny"), seed, &out));
}
