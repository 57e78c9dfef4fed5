//! Workspace source-invariant lint gate.

use gs_bench::util::Cli;

const USAGE: &str = "\
usage: lint [--deny] [--write-registry]
  (no flags)         report; fail on deny-level findings
  --deny             also fail on warn-level findings (the CI bar)
  --write-registry   regenerate telemetry-registry.txt from DESIGN.md
";

fn main() {
    let cli = Cli::from_env(USAGE, &["--deny", "--write-registry"], &[], 0);
    std::process::exit(gs_bench::lint::run(
        cli.flag("--deny"),
        cli.flag("--write-registry"),
    ));
}
