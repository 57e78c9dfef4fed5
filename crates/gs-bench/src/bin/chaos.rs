//! Fault-injection (chaos-equivalence) run over the workload corpus.

use gs_bench::util::Cli;

const USAGE: &str = "\
usage: chaos [--deny] [--seed N]
  (no flags)   run the corpus; always exit 0
  --deny       fail on any equivalence violation (the CI bar)
  --seed N     pin the fault plan and workload shape (default 42)
";

fn main() {
    let cli = Cli::from_env(USAGE, &["--deny"], &["--seed"], 0);
    let seed = cli.value("--seed", 42u64);
    std::process::exit(gs_bench::chaos::run(cli.flag("--deny"), seed));
}
