//! The benchmark command.
//!
//! ```text
//! perfbench --workload <browse_small|paper_overhead|server_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root, prints the host
//! fingerprint and every metric by name with its unit and sample count
//! (lines starting with `#`), then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any result, durable write or hygiene check
//! failed, 2 on bad arguments.

mod run;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::host::{host_cpu_ticks, Fingerprint};
use run::common::{Env, Metric, Outcome};

const WORKLOADS: [&str; 3] = ["browse_small", "paper_overhead", "server_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A metric value as JSON (non-finite values cannot be represented).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn report(args: &Args, host: &Fingerprint, steal: f64, outcome: &Outcome) -> bool {
    let correct = outcome.failures.count == 0 && !outcome.metrics.is_empty();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# host {}", host.to_json());
    println!(
        "# host cpu stolen by the hypervisor during the run: {:.1}%",
        steal * 100.0
    );
    for m in &outcome.metrics {
        println!(
            "# {:<36} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        outcome.failures.count as f64 / outcome.attempted.max(1) as f64,
        outcome.failures.count,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for msg in &outcome.failures.messages {
        println!("# failure: {msg}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(
            |Metric {
                 name, value, unit, ..
             }| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            },
        )
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failures.count,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Everything the run writes — databases, spill files, the span dump —
    // stays under `.perfbench/` in the working directory.
    let out = match std::env::current_dir() {
        Ok(cwd) => cwd.join(".perfbench"),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf = out.join(format!("run-{}", std::process::id()));
    let tmp = work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    // Spill files go to the temp directory; no thread exists yet.
    std::env::set_var("TMPDIR", &tmp);

    let host = Fingerprint::take();
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        base: Instant::now(),
    };
    let trace_out = out.join(format!("trace-{}.tsv", args.workload));
    let ticks = host_cpu_ticks();
    let outcome = match args.workload.as_str() {
        "browse_small" => {
            run::one_shot::run(&env, run::one_shot::browse_small(args.seed), &trace_out)
        }
        "paper_overhead" => {
            run::one_shot::run(&env, run::one_shot::paper_overhead(args.seed), &trace_out)
        }
        _ => run::mixed::run(&env, &trace_out),
    };
    let _ = std::fs::remove_dir_all(&work);
    let now = host_cpu_ticks();
    let steal = (now.0 - ticks.0) as f64 / (now.1 - ticks.1).max(1) as f64;
    if report(&args, &host, steal, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
