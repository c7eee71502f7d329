//! Experiment harness: builds simulated clusters for every protocol in the
//! workspace, drives client workloads over them and aggregates the metrics the
//! paper reports.
//!
//! The harness is what the figure-reproduction benchmarks (`wbam-bench`), the
//! examples and the cross-protocol integration tests share:
//!
//! * [`cluster`] — [`ProtocolSim`], a protocol-agnostic façade over a
//!   [`Simulation`](wbam_simnet::Simulation) populated with replicas and
//!   clients of one protocol ([`Protocol`]); plus [`ClusterSpec`], the
//!   topology/latency description of an experiment.
//! * [`workload`] — closed-loop client workloads (every client keeps one
//!   multicast outstanding, as in the paper's evaluation) and their results.
//! * [`probe`] — single-message latency probes used for the latency table and
//!   the message-flow/convoy figures.
//! * [`mod@sweep`] — parameter sweeps over client counts and destination-group
//!   counts, producing the rows of Figures 7 and 8.
//! * [`token`] — [`SeedToken`], the one replay-token type of every seeded
//!   engine (`v1`/`v2` simulator, `rt1` deterministic runtime, `n1`
//!   deployed chaos).
//! * [`verdict`] — the one check pipeline every engine's runs are judged by:
//!   the Figure 6 invariants, total order, the key-value linearizability
//!   oracle and termination.
//! * [`driver`] — the sweep, greedy minimizer, replay and command line
//!   shared by the `explorer` and `rt_explorer` binaries.
//! * [`explorer`] — the simulator engine of the seeded schedule explorer:
//!   randomized workloads and nemesis fault plans, with replayable failure
//!   seeds.
//! * [`deploy`] — topology specs for *deployed* clusters (one OS process per
//!   replica or client over the TCP transport of `wbam-runtime`), consumed
//!   by the `wbamd` binary, plus the JSONL log formats it emits.
//! * [`proxy`] — [`NemesisProxy`], a fault-injecting TCP man-in-the-middle
//!   that executes seeded [`NemesisPlan`](wbam_types::nemesis::NemesisPlan)s
//!   (drops, duplicates, delays, asymmetric partitions with heal) on every
//!   link of a deployed cluster.
//! * [`chaos`] — the deployed chaos driver behind the `net_chaos` binary:
//!   seeded plan + workload generation, live-cluster orchestration with
//!   process faults (SIGKILL/redeploy, SIGSTOP/SIGCONT), delivery-log
//!   draining, and the shared verdict over the result.
//! * [`rt`] — the deterministic-runtime engine behind the `rt_explorer`
//!   binary: seeded interleavings of the *deployed* node loop
//!   ([`DeterministicRuntime`](wbam_runtime::DeterministicRuntime) under a
//!   virtual clock), with replayable `rt1` tokens.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod deploy;
pub mod driver;
pub mod explorer;
pub mod probe;
pub mod proxy;
pub mod rt;
pub mod sweep;
pub mod token;
pub mod verdict;
pub mod workload;

pub use chaos::{run_net_token, NetChaosConfig, NetChaosReport};
pub use cluster::{ClusterSpec, Protocol, ProtocolSim};
pub use deploy::{ChildGuard, ClientSummary, DeliveryLine, DeployRole, DeploySpec, LatencyStats};
pub use driver::{
    explore, minimize, run_token, Engine, ExplorationReport, ExplorerConfig, Finding, RunReport,
};
pub use explorer::{generate_schedule, SimEngine};
pub use probe::{convoy_probe, latency_probe, LatencyProbeResult};
pub use proxy::{FrameFate, LinkScheduler, NemesisProxy, ProxyStats};
pub use rt::{generate_rt_plan, RtEngine, RtPlan};
pub use sweep::{sweep, BenchRecord, SweepPoint, SweepResult, SweepSpec};
pub use token::{SeedToken, TokenVersion};
pub use workload::{run_closed_loop, ClosedLoopWorkload, WorkloadResult};
