//! Seeded schedule explorer CLI.
//!
//! ```text
//! explorer [--schedules N] [--seed S] [--no-minimize] [--out FILE]
//! explorer --replay WBAM_SEED=v1:<protocol>:<seed>
//! ```
//!
//! Runs `N` seeded schedules (rotating over WbCast / FastCast / Skeen) with
//! randomized workloads and nemesis fault plans, checking the Figure 6
//! invariants and the key-value store linearizability oracle after every run.
//! Any violation prints a replayable `WBAM_SEED=…` token and a greedily
//! minimized nemesis plan, optionally appends the token to `--out`, and makes
//! the process exit non-zero. `--replay` re-runs a single token and reports
//! its result (the digest is byte-for-byte reproducible).

use std::process::ExitCode;

use wbam_harness::driver::cli_main;
use wbam_harness::SimEngine;

fn main() -> ExitCode {
    cli_main::<SimEngine>()
}
