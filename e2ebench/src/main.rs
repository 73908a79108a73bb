//! End-to-end and per-layer benchmark of the schedule-study system.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-figs|serve-warm|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it replays the same inputs under per-layer spans and
//! reports the per-layer metrics instead. Human-readable tables and run
//! metadata go to stdout first; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed correctness
//! check or workload guard exits with code 1 and prints no result. See
//! `e2ebench/README.md` for what each workload is and why.

mod coldfigs;
mod layers;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload cold-figs|serve-warm|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold-figs", "serve-warm", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark's working directory inside the checkout: the cached
/// serve base store and per-run scratch directories live here.
pub fn state_dir() -> PathBuf {
    PathBuf::from("e2ebench").join(".state")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !PathBuf::from("e2ebench").join("Cargo.toml").is_file() {
        eprintln!("e2ebench: run from the repository root (e2ebench/Cargo.toml not found)");
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "cold-figs" => coldfigs::run(&args),
        "serve-warm" => serve::run(&args, serve::Mix::Warm),
        _ => serve::run(&args, serve::Mix::Mixed),
    };
    match result {
        Ok(report) => {
            print_report(&args, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {} FAILED: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn print_report(args: &Args, report: &Report) {
    let nproc = util::nproc();
    println!("== e2ebench {} ==", args.workload);
    println!(
        "meta: nproc={nproc} profile={} commit={} seed={} seconds={} trace={} \
         sweep_threads={} client_threads={}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        util::git_commit(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.sweep_threads,
        report.client_threads,
    );
    let wanted = report.sweep_threads.max(report.client_threads);
    if nproc < wanted {
        println!(
            "meta: WARNING host has {nproc} core(s), fewer than the {wanted} threads this \
             workload runs; parallel figures are oversubscribed"
        );
    }
    for line in &report.notes {
        println!("{line}");
    }
    if !report.samples.is_empty() {
        println!("{:<30} {:>8} {:>14} {:>14} {:>14}", "metric", "samples", "q1", "median", "q3");
        for (name, xs) in &report.samples {
            let s = util::sorted(xs);
            println!(
                "{:<30} {:>8} {:>14.6} {:>14.6} {:>14.6}",
                name,
                s.len(),
                util::quantile(&s, 0.25),
                util::quantile(&s, 0.5),
                util::quantile(&s, 0.75)
            );
        }
    }
    println!("{}", report.json());
}
