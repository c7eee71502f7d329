//! The seeded-exploration driver behind both the `explorer` (simulator)
//! and `rt_explorer` (deterministic runtime) binaries: sweep, greedy
//! minimization, replay and the command line.
//!
//! An [`Engine`] turns a [`SeedToken`] into a plan and a plan into a checked
//! [`RunReport`]. The driver sweeps `N` tokens of the engine's newest
//! version, shrinks the plan of every failing one ([`minimize`]) and prints
//! replayable tokens; [`cli_main`] wraps it all in the shared command line:
//!
//! ```text
//! <bin> [--schedules N] [--seed S] [--no-minimize] [--out FILE]
//! <bin> --replay <token>
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use crate::cluster::Protocol;
use crate::token::{SeedToken, TokenVersion};
use crate::verdict::Verdict;

/// A seeded engine the driver can sweep, minimize and replay.
pub trait Engine {
    /// Everything a token derives; the minimizer shrinks it.
    type Plan: Clone;

    /// The version fresh sweeps mint.
    const VERSION: TokenVersion;
    /// Every version this engine replays.
    const REPLAYS: &'static [TokenVersion];
    /// The binary replaying this engine's tokens.
    const BIN: &'static str;
    /// What one run is called in the sweep summary.
    const RUNS: &'static str;
    /// The sweep's closing line when nothing failed.
    const CLEAN: &'static str;
    /// The heading of a failing run.
    const FAILING: &'static str;

    /// The plan a token derives. Pure.
    fn generate(token: &SeedToken) -> Self::Plan;
    /// Runs a plan (the token's own or a shrunk one) and checks it.
    fn run(token: &SeedToken, plan: &Self::Plan) -> RunReport;
    /// `(crashes, partitions)` the plan schedules.
    fn faults(plan: &Self::Plan) -> (usize, usize);
    /// How many fault elements [`Engine::shrink`] can address.
    fn shrink_points(plan: &Self::Plan) -> usize;
    /// The plan without fault element `point`, or `None` if that element is
    /// already inert. Must strictly shrink the plan, and must leave the
    /// numbering of every element below `point` unchanged.
    fn shrink(plan: &Self::Plan, point: usize) -> Option<Self::Plan>;
    /// Replay header lines describing a plan.
    fn describe(plan: &Self::Plan) -> Vec<String>;
    /// The replay line describing a run.
    fn outcome(report: &RunReport) -> String;
    /// The sweep summary's fault tally.
    fn fault_summary(report: &ExplorationReport<Self::Plan>) -> String;
    /// How a minimized failing plan is printed.
    fn minimized(plan: &Self::Plan) -> String;
}

/// The result of running one plan.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The run's replay token.
    pub token: SeedToken,
    /// Stable digest of the run's observable behaviour
    /// ([`run_digest`](crate::verdict::run_digest)); equal digests mean
    /// byte-for-byte identical runs.
    pub digest: u64,
    /// Operations submitted.
    pub ops: usize,
    /// Operations that completed at their client.
    pub completed: usize,
    /// Total delivery records (replica applies + client completions).
    pub deliveries: usize,
    /// Messages the nemesis dropped (simulator only).
    pub nemesis_dropped: u64,
    /// Messages the nemesis duplicated (simulator only).
    pub nemesis_duplicated: u64,
    /// The first violation found, if any (prefixed with its category:
    /// `config:`, `invariant:`, `linearizability:` or `termination:`).
    pub violation: Option<String>,
}

impl RunReport {
    /// The report of a checked run.
    pub(crate) fn checked(
        token: SeedToken,
        ops: usize,
        deliveries: usize,
        digest: u64,
        verdict: Verdict,
    ) -> RunReport {
        RunReport {
            token,
            digest,
            ops,
            completed: verdict.completed,
            deliveries,
            nemesis_dropped: 0,
            nemesis_duplicated: 0,
            violation: verdict.violation,
        }
    }

    /// The report of a run whose cluster could not be built.
    pub(crate) fn unbuildable(
        token: SeedToken,
        ops: usize,
        error: impl std::fmt::Display,
    ) -> RunReport {
        let verdict = Verdict {
            completed: 0,
            checked_reads: 0,
            violation: Some(format!("config: {error}")),
        };
        RunReport::checked(token, ops, 0, 0, verdict)
    }
}

/// A failing run, with its minimized plan.
#[derive(Debug, Clone)]
pub struct Finding<P> {
    /// Replay token reproducing the failure.
    pub token: SeedToken,
    /// The violation.
    pub description: String,
    /// The greedily minimized plan (still failing), if minimization was
    /// enabled.
    pub minimized: Option<P>,
}

/// Aggregate results of a sweep.
#[derive(Debug, Clone)]
pub struct ExplorationReport<P> {
    /// Runs executed.
    pub schedules: usize,
    /// Failing runs.
    pub findings: Vec<Finding<P>>,
    /// Total operations submitted.
    pub total_ops: usize,
    /// Total operations completed.
    pub total_completed: usize,
    /// Total messages dropped by the nemesis.
    pub nemesis_dropped: u64,
    /// Total messages duplicated by the nemesis.
    pub nemesis_duplicated: u64,
    /// Total crashes scheduled.
    pub crashes: usize,
    /// Total partitions scheduled.
    pub partitions: usize,
}

/// Configuration of a sweep.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Number of runs; run `i` uses `protocols[i % protocols.len()]` with a
    /// seed derived from `base_seed` and `i` ([`SeedToken::sweep`]).
    pub schedules: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Protocols to rotate through.
    pub protocols: Vec<Protocol>,
    /// Minimize the plan of failing runs before reporting.
    pub minimize: bool,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            schedules: 200,
            base_seed: 42,
            protocols: Protocol::evaluated().to_vec(),
            minimize: true,
        }
    }
}

/// Runs the canonical plan of a token.
pub fn run_token<E: Engine>(token: &SeedToken) -> RunReport {
    E::run(token, &E::generate(token))
}

/// Greedily minimizes the plan of a failing token: removes fault elements
/// one at a time, highest point first, keeping every removal whose run
/// still fails, and repeats until a full pass keeps nothing. Every kept
/// removal strictly shrinks the plan, so this terminates.
pub fn minimize<E: Engine>(token: &SeedToken) -> E::Plan {
    let mut plan = E::generate(token);
    loop {
        let mut changed = false;
        for point in (0..E::shrink_points(&plan)).rev() {
            if let Some(candidate) = E::shrink(&plan, point) {
                if E::run(token, &candidate).violation.is_some() {
                    plan = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            return plan;
        }
    }
}

/// Runs a sweep, collecting findings (with minimized plans) and aggregate
/// statistics.
pub fn explore<E: Engine>(config: &ExplorerConfig) -> ExplorationReport<E::Plan> {
    let mut report = ExplorationReport {
        schedules: 0,
        findings: Vec::new(),
        total_ops: 0,
        total_completed: 0,
        nemesis_dropped: 0,
        nemesis_duplicated: 0,
        crashes: 0,
        partitions: 0,
    };
    for index in 0..config.schedules {
        let token = SeedToken::sweep(E::VERSION, config.base_seed, index, &config.protocols);
        let plan = E::generate(&token);
        let (crashes, partitions) = E::faults(&plan);
        report.crashes += crashes;
        report.partitions += partitions;
        let run = E::run(&token, &plan);
        report.schedules += 1;
        report.total_ops += run.ops;
        report.total_completed += run.completed;
        report.nemesis_dropped += run.nemesis_dropped;
        report.nemesis_duplicated += run.nemesis_duplicated;
        if let Some(description) = run.violation {
            let minimized = config.minimize.then(|| minimize::<E>(&token));
            report.findings.push(Finding {
                token,
                description,
                minimized,
            });
        }
    }
    report
}

struct Args {
    config: ExplorerConfig,
    out: Option<String>,
    replay: Option<String>,
}

fn parse_args(bin: &str) -> Result<Args, String> {
    let mut args = Args {
        config: ExplorerConfig::default(),
        out: None,
        replay: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--schedules" => {
                args.config.schedules = value("--schedules")?
                    .parse()
                    .map_err(|e| format!("--schedules: {e}"))?;
            }
            "--seed" => {
                args.config.base_seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--no-minimize" => args.config.minimize = false,
            "--out" => args.out = Some(value("--out")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: {bin} [--schedules N] [--seed S] [--no-minimize] \
                     [--out FILE] [--replay TOKEN]"
                ));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn replay<E: Engine>(token_str: &str) -> ExitCode {
    let token = match SeedToken::parse(token_str, E::REPLAYS) {
        Ok(token) => token,
        Err(e) => {
            eprintln!("bad token: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = E::generate(&token);
    println!("replaying {token}");
    for line in E::describe(&plan) {
        println!("  {line}");
    }
    let report = E::run(&token, &plan);
    println!("  {}", E::outcome(&report));
    match report.violation {
        None => {
            println!("  OK: all invariants and the linearizability oracle hold");
            ExitCode::SUCCESS
        }
        Some(violation) => {
            println!("  VIOLATION: {violation}");
            ExitCode::FAILURE
        }
    }
}

/// The shared command line: a sweep, or `--replay` of one token. Exits
/// non-zero on any violation (2 on usage errors and bad tokens).
pub fn cli_main<E: Engine>() -> ExitCode {
    let args = match parse_args(E::BIN) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(token) = &args.replay {
        return replay::<E>(token);
    }

    let started = Instant::now();
    let report = explore::<E>(&args.config);
    let elapsed = started.elapsed();
    println!(
        "explored {} {} in {:.1?} (base seed {}): {} ops submitted, {} completed; {}",
        report.schedules,
        E::RUNS,
        elapsed,
        args.config.base_seed,
        report.total_ops,
        report.total_completed,
        E::fault_summary(&report),
    );

    if report.findings.is_empty() {
        println!("{}", E::CLEAN);
        return ExitCode::SUCCESS;
    }

    for finding in &report.findings {
        println!();
        println!("{}: {}", E::FAILING, finding.token);
        println!("  {}", finding.description);
        if let Some(plan) = &finding.minimized {
            println!("  {}", E::minimized(plan));
        }
        println!(
            "  replay with: cargo run --release -p wbam-harness --bin {} -- --replay '{}'",
            E::BIN,
            finding.token
        );
    }
    if let Some(path) = &args.out {
        match std::fs::File::create(path) {
            Ok(mut file) => {
                for finding in &report.findings {
                    let _ = writeln!(file, "{}", finding.token);
                }
                println!(
                    "\nwrote {} failing seed(s) to {path}",
                    report.findings.len()
                );
            }
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy engine whose plan is a list of fault ids; a run fails while
    /// the plan holds both 3 and 7, or more than five faults.
    struct Toy;

    fn fails(plan: &[u32]) -> bool {
        (plan.contains(&3) && plan.contains(&7)) || plan.len() > 5
    }

    impl Engine for Toy {
        type Plan = Vec<u32>;
        const VERSION: TokenVersion = TokenVersion::V2;
        const REPLAYS: &'static [TokenVersion] = &[TokenVersion::V2];
        const BIN: &'static str = "toy";
        const RUNS: &'static str = "toys";
        const CLEAN: &'static str = "clean";
        const FAILING: &'static str = "FAILING";

        fn generate(_: &SeedToken) -> Vec<u32> {
            (0..10).collect()
        }
        fn run(token: &SeedToken, plan: &Vec<u32>) -> RunReport {
            let verdict = Verdict {
                completed: 0,
                checked_reads: 0,
                violation: fails(plan).then(|| "toy".to_string()),
            };
            RunReport::checked(*token, 0, 0, 0, verdict)
        }
        fn faults(plan: &Vec<u32>) -> (usize, usize) {
            (plan.len(), 0)
        }
        fn shrink_points(plan: &Vec<u32>) -> usize {
            plan.len()
        }
        fn shrink(plan: &Vec<u32>, point: usize) -> Option<Vec<u32>> {
            let mut shrunk = plan.clone();
            shrunk.remove(point);
            Some(shrunk)
        }
        fn describe(_: &Vec<u32>) -> Vec<String> {
            Vec::new()
        }
        fn outcome(_: &RunReport) -> String {
            String::new()
        }
        fn fault_summary(_: &ExplorationReport<Vec<u32>>) -> String {
            String::new()
        }
        fn minimized(plan: &Vec<u32>) -> String {
            format!("{plan:?}")
        }
    }

    /// The minimizer runs to a fixpoint: its result still fails, and
    /// removing any one remaining fault makes the run pass.
    #[test]
    fn minimize_reaches_a_one_minimal_failing_plan() {
        let token = SeedToken::sweep(TokenVersion::V2, 1, 0, &Protocol::evaluated());
        let plan = minimize::<Toy>(&token);
        assert!(fails(&plan), "{plan:?}");
        for point in 0..plan.len() {
            assert!(!fails(&Toy::shrink(&plan, point).unwrap()), "{plan:?}");
        }
        let report = explore::<Toy>(&ExplorerConfig {
            schedules: 2,
            ..ExplorerConfig::default()
        });
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.findings[0].minimized.as_ref(), Some(&plan));
    }
}
