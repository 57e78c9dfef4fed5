//! Open-loop serving storm over gs-serve (§8 fraud mix).

use gs_bench::util::Cli;

const USAGE: &str = "\
usage: storm [--deny] [--seed N] [--duration-supersteps K] [--out PATH]
  (no flags)                full run, writes BENCH_storm.json
  --deny                    fail if the baseline phase sheds or errors
  --seed N                  pin the schedule (default 42)
  --duration-supersteps K   scale phase length (default 5)
  --out PATH                output path (default BENCH_storm.json)
";

fn main() {
    let cli = Cli::from_env(
        USAGE,
        &["--deny"],
        &["--seed", "--duration-supersteps", "--out"],
        0,
    );
    let seed = cli.value("--seed", 42u64);
    let supersteps = cli.value("--duration-supersteps", 5u64);
    let out = cli.value("--out", "BENCH_storm.json".to_string());
    std::process::exit(gs_bench::storm::run_cli(
        cli.flag("--deny"),
        seed,
        supersteps,
        &out,
    ));
}
