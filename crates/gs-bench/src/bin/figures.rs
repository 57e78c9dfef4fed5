//! Regenerates the paper's tables and figures.

use gs_bench::experiments;
use gs_bench::util::Cli;
use std::io::{self, Write};

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
    let which = cli.positionals.first().map_or("all", String::as_str);
    let scale: f64 = cli.positionals.get(1).map_or(1.0, |s| {
        s.parse()
            .unwrap_or_else(|_| cli.fail(&format!("bad scale `{s}`")))
    });
    match run(which, scale, telemetry) {
        // the reader went away (`figures list | head -3`): a quiet end
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("figures: {e}");
            std::process::exit(1);
        }
        Ok(()) => {}
    }
}

/// Runs the selection, writing the listing, headers and telemetry reports
/// through a locked stdout. The lock is never held while an experiment
/// runs: experiments print from their own threads too.
fn run(which: &str, scale: f64, telemetry: bool) -> io::Result<()> {
    let report = || -> io::Result<()> {
        if telemetry {
            let g = gs_telemetry::global();
            io::stdout().lock().write_all(g.text_report().as_bytes())?;
            g.reset();
        }
        Ok(())
    };
    match which {
        "list" => {
            let mut out = io::stdout().lock();
            for (name, _) in experiments::EXPERIMENTS {
                writeln!(out, "{name}")?;
            }
        }
        "all" => {
            for (name, f) in experiments::EXPERIMENTS {
                writeln!(
                    io::stdout().lock(),
                    "\n################ {name} ################"
                )?;
                f(scale);
                report()?;
            }
        }
        name => {
            if experiments::run(name, scale).is_none() {
                eprintln!("unknown experiment `{name}`; try `figures list`");
                std::process::exit(1);
            }
            report()?;
        }
    }
    io::stdout().lock().flush()
}
