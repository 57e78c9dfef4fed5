//! Timing, table-formatting and command-line helpers shared by all
//! experiments and gate binaries.

use std::str::FromStr;
use std::time::{Duration, Instant};

/// Times a closure: one warm-up run, then the median of `runs` timed runs.
pub fn time_it<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut result = f(); // warm-up
    let mut times = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        result = f();
        times.push(t0.elapsed());
    }
    times.sort();
    (times[times.len() / 2], result)
}

/// One output row.
pub type Row = Vec<String>;

/// Fixed-width console table printer.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Row>,
}

impl TablePrinter {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {c:<w$} |"));
            }
            s
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        println!("{sep}");
        println!("{}", line(&self.headers));
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
        println!("{sep}");
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

/// Formats a speedup factor.
pub fn fmt_speedup(baseline: Duration, ours: Duration) -> String {
    if ours.as_nanos() == 0 {
        return "∞".to_string();
    }
    format!("{:.2}×", baseline.as_secs_f64() / ours.as_secs_f64())
}

/// A strictly parsed command line: known switches, known options that
/// take one value each, and at most a fixed number of positional
/// arguments. Anything else is an error, so a typo'd flag cannot pass for
/// a successful run.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    switches: Vec<String>,
    options: Vec<(String, String)>,
    pub positionals: Vec<String>,
}

impl Cli {
    /// Parses the process arguments; a bad command line prints the error
    /// and `usage` to stderr and exits 2.
    pub fn from_env(
        usage: &'static str,
        switches: &[&str],
        options: &[&str],
        max_positionals: usize,
    ) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(usage, &args, switches, options, max_positionals)
            .unwrap_or_else(|e| fail(usage, &e))
    }

    /// Parses `args` against the known `switches` and `options`.
    pub fn parse(
        usage: &'static str,
        args: &[String],
        switches: &[&str],
        options: &[&str],
        max_positionals: usize,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            usage,
            switches: Vec::new(),
            options: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                cli.switches.push(a.clone());
            } else if options.contains(&a.as_str()) {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{a} needs a value"))?;
                cli.options.push((a.clone(), v.clone()));
            } else if a.starts_with('-') {
                return Err(format!("unknown flag `{a}`"));
            } else if cli.positionals.len() == max_positionals {
                return Err(format!("unexpected argument `{a}`"));
            } else {
                cli.positionals.push(a.clone());
            }
        }
        Ok(cli)
    }

    /// Whether switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of option `name` (the last one given), or `default`.
    /// A value that does not parse as `T` is a bad command line.
    pub fn value<T: FromStr>(&self, name: &str, default: T) -> T {
        self.try_value(name)
            .unwrap_or_else(|e| self.fail(&e))
            .unwrap_or(default)
    }

    fn try_value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.parse().map_err(|_| format!("bad {name} `{v}`")))
            .transpose()
    }

    /// Reports a bad command line and exits 2.
    pub fn fail(&self, error: &str) -> ! {
        fail(self.usage, error)
    }
}

fn fail(usage: &str, error: &str) -> ! {
    eprint!("error: {error}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_result() {
        let (d, v) = time_it(3, || 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = TablePrinter::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::parse("usage: test\n", &args, &["--deny"], &["--seed", "--out"], 1)
    }

    #[test]
    fn cli_rejects_a_typoed_flag() {
        assert_eq!(parse(&["--dney"]).unwrap_err(), "unknown flag `--dney`");
    }

    #[test]
    fn cli_rejects_an_option_without_its_value() {
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--seed", "--deny"]).unwrap_err(),
            "--seed needs a value"
        );
    }

    #[test]
    fn cli_accepts_a_valid_invocation() {
        let cli = parse(&["fig7a", "--deny", "--seed", "7", "--out", "x.json"]).unwrap();
        assert!(cli.flag("--deny"));
        assert_eq!(cli.value("--seed", 42u64), 7);
        assert_eq!(cli.value("--out", String::new()), "x.json");
        assert_eq!(cli.positionals, ["fig7a"]);
        let defaults = parse(&[]).unwrap();
        assert!(!defaults.flag("--deny"));
        assert_eq!(defaults.value("--seed", 42u64), 42);
        assert_eq!(
            parse(&["a", "b"]).unwrap_err(),
            "unexpected argument `b`",
            "one positional at most"
        );
        assert!(parse(&["--seed", "x"])
            .unwrap()
            .try_value::<u64>("--seed")
            .is_err());
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5µs");
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
        assert_eq!(
            fmt_speedup(Duration::from_secs(2), Duration::from_secs(1)),
            "2.00×"
        );
    }
}
