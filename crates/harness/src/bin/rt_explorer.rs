//! Deterministic-runtime schedule explorer CLI.
//!
//! ```text
//! rt_explorer [--schedules N] [--seed S] [--no-minimize] [--out FILE]
//! rt_explorer --replay WBAM_SEED=rt1:<protocol>:<seed>
//! ```
//!
//! Runs `N` seeded interleavings of the deployed node event loop (rotating
//! over WbCast / FastCast / Skeen) through the virtual-clock
//! `DeterministicRuntime`, checking the Figure 6 invariants, the key-value
//! linearizability oracle and termination after every run. Any violation
//! prints a replayable `WBAM_SEED=rt1:…` token with a greedily minimized
//! crash schedule, optionally appends the token to `--out`, and makes the
//! process exit non-zero. `--replay` re-runs a single token and reports its
//! result (the digest covers every delivery record and the scheduler's
//! decision trace, so it is byte-for-byte reproducible).

use std::process::ExitCode;

use wbam_harness::driver::cli_main;
use wbam_harness::RtEngine;

fn main() -> ExitCode {
    cli_main::<RtEngine>()
}
