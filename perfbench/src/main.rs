//! The odrl performance benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chip1024|rack16x64|paper_sweep> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload is a closed loop (one caller; the next epoch starts only
//! after the previous one completes) driven through the crates' public
//! API; the program itself carries no benchmark knobs or timers.
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off.
//! * `--trace 1` runs the same workload with spans recorded around every
//!   public call into a layer (plus replicas of the layers a fleet hides
//!   inside `Fleet::step_epoch`), derives per-layer self times from the
//!   spans, and writes them as Chrome trace-event JSON to
//!   `.bench_out/trace-<workload>.json`.
//!
//! Each run checks its outputs every epoch (step errors, non-finite power,
//! VF levels out of range, fleet budget conservation, market conservation)
//! and prints a report, an FNV digest of the simulated outputs of a fixed
//! leading window (identical for one seed, traced or not), and, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! Seeds: [`DEFAULT_SEED`] when `--seed` is absent; [`HELD_OUT_SEED`] is
//! reserved for confirming a claimed gain on a seed the change was not
//! tuned on.

mod alloc;
mod chip;
mod measure;
mod rack;
mod spans;
mod sweep;
#[cfg(test)]
mod tests;

use measure::{host_stamp, nproc, unit, Outcome, GATED, LAYERS, UNGATED};
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of development runs, for confirming claims.
pub const HELD_OUT_SEED: u64 = 20_150_309;

/// Spans written to the trace file (all spans feed the metrics).
const TRACE_FILE_SPANS: usize = 200_000;

/// The workloads and the threads each one uses at most.
const WORKLOADS: &[(&str, usize)] = &[("chip1024", 1), ("rack16x64", 2), ("paper_sweep", 2)];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(name, _)| *name)
                        .find(|name| *name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, log: Option<&mut SpanLog>) -> Outcome {
    match args.workload {
        "chip1024" => chip::run(&chip::Params::FULL, args.seed, args.seconds, log),
        "rack16x64" => rack::run(&rack::Params::FULL, args.seed, args.seconds, log),
        "paper_sweep" => sweep::run(&sweep::Params::FULL, args.seed, args.seconds, log),
        other => unreachable!("workload {other} was validated"),
    }
}

/// A number as JSON: all digits, and 0 in place of a non-finite value
/// (which also marks the run incorrect).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    alloc::mark_caller();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <chip1024|rack16x64|paper_sweep> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let threads = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or(1, |(_, t)| *t);
    if threads > nproc() {
        eprintln!(
            "error: {} uses {threads} threads but only {} are available; refusing to run",
            args.workload,
            nproc()
        );
        return ExitCode::from(3);
    }
    let host = host_stamp();
    let mut log = args
        .trace
        .then(|| SpanLog::new(args.workload, Instant::now()));
    let mut out = run(&args, log.as_mut());
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    let shown: Vec<(&str, &str)> = if args.trace {
        LAYERS.to_vec()
    } else {
        GATED.iter().chain(UNGATED).copied().collect()
    };
    let finite = shown.iter().all(|(name, _)| out.get(name).is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {host}");
    println!("digest: {:016x}", out.digest);
    println!(
        "checks: attempted={} failed={} correct={correct}",
        out.attempted, out.failed
    );
    for (name, unit) in &shown {
        println!("  {name:<38} {:>16.6} {unit}", out.get(name));
    }
    if let Some(log) = &log {
        let path = PathBuf::from(".bench_out").join(format!("trace-{}.json", args.workload));
        match log.write_chrome(&path, &host, TRACE_FILE_SPANS) {
            Ok(()) => println!("trace: {} spans -> {}", log.len(), path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    let listed: &[(&str, &str)] = if args.trace { LAYERS } else { GATED };
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(out.get(name)),
                unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
