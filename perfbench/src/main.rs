//! Command line of the benchmark:
//!
//! ```text
//! gs-perfbench --workload <serve-read|gart-write|analytics> --seed <n>
//!              [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a readable report, then the result as one JSON object on the
//! last line. Exits 2 on a bad command line and 1 when an output check
//! failed.

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match gs_perfbench::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // scratch space for the durable store, inside the working directory
    let scratch = PathBuf::from(".perfbench_work");
    let out = gs_perfbench::run(&args, scratch.join(std::process::id().to_string()));
    let _ = std::fs::remove_dir(&scratch); // only if no other run still uses it
    println!("{}", out.render());
    if !out.correct {
        eprintln!("gs-perfbench: output check failed");
        std::process::exit(1);
    }
}
