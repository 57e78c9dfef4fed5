//! Static plan verification over every built-in benchmark/example query.

use gs_bench::util::Cli;

const USAGE: &str = "\
usage: irlint [--deny-warnings]
  (no flags)        verify; fail on errors only
  --deny-warnings   fail on any diagnostic (the CI bar)
";

fn main() {
    let cli = Cli::from_env(USAGE, &["--deny-warnings"], &[], 0);
    // telemetry so the run also exercises the ir.verify.* counters
    gs_telemetry::install(gs_telemetry::Registry::new());
    let code = gs_bench::irlint::run(cli.flag("--deny-warnings"));
    print!("{}", gs_telemetry::global().text_report());
    std::process::exit(code);
}
