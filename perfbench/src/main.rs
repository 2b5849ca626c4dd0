//! Command-line entry point of the benchmark.
//!
//! ```text
//! qolsr-perfbench --workload flood|mobile|paper_static --seed N
//!                 --seconds S --trace 0|1 [--spans-dir DIR]
//! ```
//!
//! Run it from the repository root. It prints a human-readable summary,
//! then a `{"run": ...}` record (seed, host, code version, workload
//! configuration), and as its last line the result object with exactly
//! the keys `correct`, `attempted`, `failed` and `metrics`. The exit code
//! is 0 for a correct run, 1 for a run whose checks failed, and 2 for a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use qolsr_perfbench::bench::{self, Specs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_dir: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut spans_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (flood, mobile, paper_static)"
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans-dir" => spans_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = Specs::default();
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let outcome = bench::run(
        args.workload,
        &specs,
        args.seed,
        args.seconds,
        args.traced,
        Some(&args.spans_dir),
    );
    for line in &outcome.log {
        println!("# {line}");
    }
    for &(name, value, unit) in &outcome.metrics {
        println!("# {name:<44} {value:>16.4} {unit}");
    }
    let record = bench::record(
        args.workload,
        &specs,
        args.seed,
        args.seconds,
        args.traced,
        &root,
        &outcome,
    );
    println!("{}", record.to_json());
    println!("{}", outcome.result().to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
