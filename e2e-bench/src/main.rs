//! The end-to-end stream benchmark.
//!
//! ```text
//! e2e-bench --workload <paper_cube|late_stream|tenant_fleet> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the seeded input of one workload, drives the engine through
//! its public API with default settings, checks the outputs against a
//! reference outside the timed region, and prints every metric with its
//! unit. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics derived from the spans with
//! `--trace 1`). A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<n>.jsonl`. See README.md.

mod alloc;
mod late_stream;
mod paper_cube;
mod passes;
mod report;
mod rng;
mod tenant_fleet;
#[cfg(test)]
mod tests;
mod trace;

use passes::RunConfig;
use report::Outcome;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["paper_cube", "late_stream", "tenant_fleet"];

struct Args {
    workload: String,
    cfg: RunConfig,
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
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

/// `REGCUBE_*` variables swap the program under test (backend, kernels,
/// reordering defaults), so a run with any of them set is refused.
fn env_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("REGCUBE_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {set:?} set: they change the program under test"
        ))
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(workload: &str, cfg: &RunConfig) -> String {
    let defaults = paper_cube::config();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"nproc\": {}, \"backend\": \"{:?}\", \"shards\": {}}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        git_commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        defaults.backend,
        defaults.shards,
    )
}

fn run(workload: &str, cfg: &RunConfig) -> Outcome {
    match workload {
        "paper_cube" => paper_cube::run(cfg, &paper_cube::Scale::full()),
        "late_stream" => late_stream::run(cfg, &late_stream::Scale::full()),
        _ => tenant_fleet::run(cfg, &tenant_fleet::Scale::full()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| env_guard().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args.workload, &args.cfg);
    println!("# provenance {provenance}");
    let outcome = run(&args.workload, &args.cfg);
    for m in &outcome.metrics {
        println!("# {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.exact {
        println!("# exact {name:<34} {value}");
    }
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.mismatches {
        eprintln!("e2e-bench: output check: {m}");
    }
    if args.cfg.trace {
        let path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.cfg.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&provenance, &outcome.spans)));
        match written {
            Ok(()) => println!("# trace {path} ({} spans)", outcome.spans.len()),
            Err(e) => eprintln!("e2e-bench: writing {path}: {e}"),
        }
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
