//! Deployed chaos sweep CLI: seeded fault plans against live `wbamd` clusters.
//!
//! ```text
//! net_chaos [--plans N] [--base-seed S] [--messages M] [--out FILE]
//!           [--logs DIR] [--wbamd PATH]
//! net_chaos --seed WBAM_NET_SEED=n1:WbCast:<hex> [--messages M]
//! ```
//!
//! Each plan derives a complete experiment from one seed — link drops /
//! duplicates / delays, one asymmetric-capable partition with heal, one
//! SIGKILL with `--restart` redeploy, sometimes a SIGSTOP/SIGCONT pause, and
//! a key-value workload — and runs it against a real 2-group × 3-replica
//! cluster of `wbamd` OS processes whose every TCP link passes through the
//! nemesis proxy. The drained delivery logs are checked against the Figure 6
//! agreement invariants and the linearizability oracle. Any violation prints
//! the replayable `WBAM_NET_SEED=…` token, keeps the delivery logs, and
//! makes the process exit non-zero; `--out` additionally appends failing
//! tokens to a file for CI artifact upload.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wbam_harness::{
    run_net_token, NetChaosConfig, NetChaosReport, Protocol, SeedToken, TokenVersion,
};

struct Args {
    plans: usize,
    base_seed: u64,
    seed: Option<String>,
    messages: Option<usize>,
    out: Option<String>,
    logs: Option<PathBuf>,
    wbamd: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        plans: 5,
        base_seed: 42,
        seed: None,
        messages: None,
        out: None,
        logs: None,
        wbamd: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--plans" => {
                args.plans = value("--plans")?
                    .parse()
                    .map_err(|e| format!("--plans: {e}"))?;
            }
            "--base-seed" => {
                args.base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|e| format!("--base-seed: {e}"))?;
            }
            "--seed" => args.seed = Some(value("--seed")?),
            "--messages" => {
                args.messages = Some(
                    value("--messages")?
                        .parse()
                        .map_err(|e| format!("--messages: {e}"))?,
                );
            }
            "--out" => args.out = Some(value("--out")?),
            "--logs" => args.logs = Some(PathBuf::from(value("--logs")?)),
            "--wbamd" => args.wbamd = Some(PathBuf::from(value("--wbamd")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: net_chaos [--plans N] [--base-seed S] [--seed TOKEN] \
                     [--messages M] [--out FILE] [--logs DIR] [--wbamd PATH]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn describe(report: &NetChaosReport, elapsed: std::time::Duration) {
    println!(
        "  digest {:016x}: {}/{} ops completed, {} log lines, {} reads checked in {:.1?}",
        report.plan_digest,
        report.completed,
        report.ops,
        report.delivery_lines,
        report.checked_reads,
        elapsed,
    );
    println!(
        "  proxy: {} forwarded, {} dropped, {} duplicated, {} delayed, {} severed",
        report.proxy.forwarded,
        report.proxy.dropped,
        report.proxy.duplicated,
        report.proxy.delayed,
        report.proxy.severed,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let tokens: Vec<SeedToken> = if let Some(seed) = &args.seed {
        match SeedToken::parse(seed, &[TokenVersion::N1]) {
            Ok(token) => vec![token],
            Err(e) => {
                eprintln!("bad token: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        (0..args.plans)
            .map(|i| SeedToken::sweep(TokenVersion::N1, args.base_seed, i, &[Protocol::WhiteBox]))
            .collect()
    };

    let mut failures: Vec<(SeedToken, String, PathBuf)> = Vec::new();
    for token in &tokens {
        println!("running {token}");
        let config = NetChaosConfig {
            messages: args.messages,
            log_dir: args
                .logs
                .as_ref()
                .map(|dir| dir.join(format!("{:016x}", token.seed))),
            wbamd: args.wbamd.clone(),
        };
        let started = Instant::now();
        match run_net_token(token, &config) {
            Ok(report) => {
                describe(&report, started.elapsed());
                match report.violation {
                    None => println!("  OK"),
                    Some(violation) => {
                        println!("  VIOLATION: {violation}");
                        println!("  logs kept in {}", report.log_dir.display());
                        failures.push((*token, violation, report.log_dir));
                    }
                }
            }
            Err(e) => {
                eprintln!("  SETUP FAILED: {e}");
                failures.push((
                    *token,
                    format!("run: {e}"),
                    config.log_dir.unwrap_or_else(std::env::temp_dir),
                ));
            }
        }
    }

    if failures.is_empty() {
        println!(
            "\nall {} run(s) passed: Figure 6 agreement and the linearizability \
             oracle held over every drained delivery log",
            tokens.len()
        );
        return ExitCode::SUCCESS;
    }

    println!();
    for (token, violation, log_dir) in &failures {
        println!("FAILING PLAN: {token}");
        println!("  {violation}");
        println!("  logs: {}", log_dir.display());
        println!(
            "  replay with: cargo run --release -p wbam-harness --bin net_chaos -- \
             --seed '{token}'"
        );
    }
    if let Some(path) = &args.out {
        match std::fs::File::create(path) {
            Ok(mut file) => {
                for (token, violation, _) in &failures {
                    let _ = writeln!(file, "{token} {violation}");
                }
                println!("\nwrote {} failing seed(s) to {path}", failures.len());
            }
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    ExitCode::FAILURE
}
