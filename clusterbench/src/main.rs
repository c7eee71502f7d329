//! `clusterbench` — the deployed-cluster benchmark.
//!
//! ```text
//! clusterbench --wbamd PATH --workload NAME --seed N --seconds S --trace 0|1
//!              [--results FILE]
//! ```
//!
//! Runs one seeded workload against a real 2-group × 3-replica `wbamd`
//! cluster on loopback TCP, judges the replicas' delivery logs, and prints a
//! table of every metric with its unit and sample count, one provenance
//! record, and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. The record is also
//! appended to `--results` (default `.bench_results/records.jsonl`). Exits 1
//! when a correctness check fails and 2 when the cluster cannot be set up.
//! See README.md for the workloads, the metrics and how to run it.

mod deployed;
mod judge;
mod procfs;
mod report;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

use crate::deployed::Cluster;
use crate::report::Record;
use crate::workload::Workload;

#[global_allocator]
static ALLOC: traced::CountingAlloc = traced::CountingAlloc;

/// Clusters set up per run; `setup_s` is their median and the last one is
/// measured.
const SETUPS: usize = 5;
/// Attempts per setup before the run gives up (a reserved port can be taken
/// between reservation and bind).
const SETUP_ATTEMPTS: usize = 3;

struct Args {
    wbamd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    results: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut wbamd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut results = PathBuf::from(".bench_results/records.jsonl");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--wbamd" => wbamd = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                })
            }
            "--results" => results = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        wbamd: wbamd.ok_or("--wbamd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        results,
    })
}

/// Removes the run directory on every exit path.
struct RunDir {
    path: PathBuf,
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_dir = RunDir {
        path: PathBuf::from(".bench_runs").join(format!(
            "{}-s{}-{}-{nanos}",
            w.name,
            args.seed,
            std::process::id()
        )),
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for k in 0..SETUPS {
        cluster = None; // stop the previous cluster before timing the next
        let mut last_err = String::new();
        for attempt in 0..SETUP_ATTEMPTS {
            let dir = run_dir.path.join(format!("setup{k}-{attempt}"));
            match Cluster::start(&args.wbamd, w, args.seed, dir) {
                Ok((c, took)) => {
                    setups.push(took);
                    cluster = Some(c);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        if setups.len() != k + 1 {
            return Err(format!(
                "setup {k} failed {SETUP_ATTEMPTS} times: {last_err}"
            ));
        }
    }
    let mut cluster = cluster.expect("at least one setup succeeded");
    let spec_json = cluster.spec.to_json().map_err(|e| e.to_string())?;
    let links = cluster.links_after_warmup;
    let window = cluster.measure(w, args.seed, Duration::from_secs(args.seconds))?;
    let outcome = cluster.finish(window);

    let mut record = Record::new(w, args.seed, args.seconds, args.trace, &spec_json);
    record.deployed(&outcome, &setups, links);
    if args.trace {
        let plain = traced::replay(w, args.seed, false);
        let traced = traced::replay(w, args.seed, true);
        let codec = traced::codec_cost(&traced.sent);
        let spans = PathBuf::from(".bench_results/spans")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed));
        if let Err(e) = traced::write_spans(&spans, &traced.traces) {
            eprintln!("clusterbench: writing spans to {}: {e}", spans.display());
        }
        record.traced(&plain, &traced, &codec);
    }
    record.print_table();
    let line = record.to_json();
    println!("{line}");
    if let Err(e) = report::append(&args.results, &line) {
        eprintln!("clusterbench: appending to {}: {e}", args.results.display());
    }
    println!("{}", record.result_line());
    Ok(record.correct())
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clusterbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("clusterbench: correctness check failed");
            std::process::ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("clusterbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
