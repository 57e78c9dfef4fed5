//! Regenerates the paper's tables and figures.

use gs_bench::experiments;
use gs_bench::util::Cli;

const USAGE: &str = "\
usage: figures [all|list|<id>] [scale] [--telemetry]
  all [scale]     run every experiment (the default)
  <id> [scale]    run one (table1, fig7a..fig7m, table2, exp6..exp8)
  list            list experiment ids
  --telemetry     print a telemetry report after each experiment
  scale multiplies dataset sizes (default 1.0 = laptop-friendly)
";

fn main() {
    let cli = Cli::from_env(USAGE, &["--telemetry"], &[], 2);
    let telemetry = cli.flag("--telemetry");
    if telemetry {
        // one registry for the whole run: hot paths cache static metric
        // handles into it, so reset between experiments instead of
        // reinstalling
        gs_telemetry::install(gs_telemetry::Registry::new());
    }
    let report = || {
        if telemetry {
            let g = gs_telemetry::global();
            print!("{}", g.text_report());
            g.reset();
        }
    };
    let which = cli.positionals.first().map_or("all", String::as_str);
    let scale: f64 = cli.positionals.get(1).map_or(1.0, |s| {
        s.parse()
            .unwrap_or_else(|_| cli.fail(&format!("bad scale `{s}`")))
    });

    match which {
        "list" => {
            for (name, _) in experiments::EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => {
            for (name, f) in experiments::EXPERIMENTS {
                println!("\n################ {name} ################");
                f(scale);
                report();
            }
        }
        name => {
            if experiments::run(name, scale).is_none() {
                eprintln!("unknown experiment `{name}`; try `figures list`");
                std::process::exit(1);
            }
            report();
        }
    }
}
