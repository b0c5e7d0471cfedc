//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-tune|served-queued> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with
//! `--trace 1` it runs the workload twice, plain and with outside-in
//! layer probes, and reports the per-layer metrics and the probes'
//! overhead. It prints a table, then one JSON line, and exits non-zero
//! when a correctness check fails. See `README.md` beside this package.

mod inproc;
mod probes;
mod report;
mod served;
mod speed;
mod stats;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal_before = stats::cpu_steal();
    let mut outcome = match args.workload.as_str() {
        "cold-tune" => inproc::run(args.seed, args.seconds, args.trace),
        "served-queued" => served::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    // On a virtual machine, CPU time the host gives to other guests
    // stretches every timing; the share says how far to trust this run.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::cpu_steal()) {
        let share = s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        outcome.note(format!(
            "host steal: {:.1}% of CPU time during the run",
            100.0 * share
        ));
    }
    if outcome.finish() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
