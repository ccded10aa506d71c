//! AquaSCALE benchmark: end-to-end and per-layer metrics of Phase I
//! (profile training) and Phase II (online inference, served and
//! in-process). See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <phase1_wssc|serve_epa|campaign_wssc> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--tamper]
//! ```
//!
//! Prints a host fingerprint line, the sample counts, a per-layer budget
//! line on traced runs, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when the outputs were not
//! correct and 2 on a usage error.

mod campaign;
mod common;
mod phase1;
mod serve;

use common::{host_line, Args, Report};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args, &mut Report) = match args.workload.as_str() {
        "phase1_wssc" => phase1::run,
        "serve_epa" => serve::run,
        "campaign_wssc" => campaign::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", host_line(&args));
    let mut report = Report::default();
    run(&args, &mut report);
    println!("{}", report.samples_line());
    if args.trace {
        println!("{}", report.budget_line(&args.workload));
    }
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
