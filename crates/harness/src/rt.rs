//! Deterministic-runtime schedule explorer: seeded interleavings of the
//! *deployed* node loop, with replayable `rt1` failure tokens.
//!
//! The simulator explorer ([`crate::explorer`]) schedules sans-IO protocol
//! state machines inside `wbam-simnet`; the net-chaos driver
//! ([`crate::chaos`]) shakes real OS processes but cannot replay an
//! interleaving byte for byte. This module covers the gap: it drives the
//! exact event-loop code `wbamd` ships (`wbam_runtime::node_loop` — burst
//! coalescing, timer generations, delivery-log batching) through
//! [`DeterministicRuntime`], where a seed-derived scheduler chooses which
//! mailbox delivers next, how large each burst is, when virtual time advances
//! (and so when retry, heartbeat and election timers fire), and where
//! crash/restart lands.
//!
//! From one 64-bit seed the module derives a complete experiment — topology,
//! key-value workload, crash/restart schedule and the scheduler's decision
//! stream — and judges every run with the shared
//! [`verdict`](crate::verdict): the Figure 6 invariants on the full message
//! trace the deterministic transport records (white-box protocol) and on the
//! per-process delivery logs (every protocol), the key-value linearizability
//! oracle, and termination (always for the white-box protocol, whose retry
//! machinery recovers from crash-lost mail; for the baselines on their
//! crash-free schedules, where the channel transport really is reliable).
//!
//! A failing run is reported as a single `WBAM_SEED=rt1:<protocol>:<seed>`
//! token; replaying the token reproduces the identical interleaving byte for
//! byte ([`RunReport::digest`] covers every delivery record *and* the
//! scheduler's decision trace). The `rt1` version is deliberately distinct
//! from the simulator's `v` tokens and the deployed chaos driver's `n`
//! tokens: the derivations share nothing, so no corpus can be replayed under
//! the wrong engine. [`RtEngine`] plugs the module into the shared
//! [`driver`](crate::driver) behind the `rt_explorer` binary.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbam_baselines::common::{BaselineClient, BaselineMsg, BaselineReplica};
use wbam_core::invariants::SentMessage;
use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxReplica};
use wbam_kvstore::Partitioner;
use wbam_runtime::{BoxedNode, DeterministicRuntime, RuntimeDelivery};
use wbam_simnet::DeliveryRecord;
use wbam_types::{AppMessage, ClusterConfig, MsgId, Payload, ProcessId};

use crate::cluster::Protocol;
use crate::driver::{Engine, ExplorationReport, RunReport};
use crate::token::{SeedToken, TokenVersion};
use crate::verdict::{run_digest, RunLog, SubmittedOp};
use crate::workload::{draw_kv_command, PlannedOp};

/// Virtual-time horizon of one run: the crash window closes by ~7 s, leaving
/// ample calm for the 2 s client retry fallbacks to converge.
const HORIZON: Duration = Duration::from_secs(30);

/// Salt for the plan RNG, keeping the derivation independent of the
/// scheduler's decision stream (which splitmix-es the raw seed).
const RT_PLAN_SALT: u64 = 0xDE7E_C7ED_C10C_55ED;

/// Heartbeat interval for white-box replicas (same as the deployed default).
const HEARTBEAT: Duration = Duration::from_millis(100);

/// Election timeout for white-box replicas.
const ELECTION_TIMEOUT: Duration = Duration::from_millis(1500);

/// Client retry fallback (both protocol families).
const RETRY_TIMEOUT: Duration = Duration::from_millis(2000);

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// One planned crash/restart of a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtCrash {
    /// Virtual time of the crash.
    pub at: Duration,
    /// The crashed replica.
    pub node: ProcessId,
    /// How long the replica stays down before restarting.
    pub down_for: Duration,
}

/// A fully generated run plan: topology, workload and crash schedule.
/// Everything here is a pure function of the token.
#[derive(Debug, Clone, PartialEq)]
pub struct RtPlan {
    /// Number of multicast groups.
    pub num_groups: usize,
    /// Replicas per group (`2f + 1`).
    pub group_size: usize,
    /// Number of client processes.
    pub num_clients: usize,
    /// The workload.
    pub ops: Vec<PlannedOp>,
    /// Replica crash/restart schedule (always empty for the baselines,
    /// which assume reliable channels: mail lost while a process is down
    /// would stall them by design, not by bug).
    pub crashes: Vec<RtCrash>,
    /// Virtual-time horizon.
    pub horizon: Duration,
}

/// Generates the complete plan of a token. Pure: the same token always
/// produces the same plan, and the workload stream is shared across
/// protocols for a given seed (the crash draws happen either way and are
/// only *kept* for the white-box protocol).
pub fn generate_rt_plan(token: &SeedToken) -> RtPlan {
    let mut rng = StdRng::seed_from_u64(token.seed ^ RT_PLAN_SALT);

    // --- Topology -------------------------------------------------------
    let num_groups = rng.gen_range(2..=3usize);
    let group_size = 3usize;
    let num_clients = rng.gen_range(1..=2usize);
    let replicas: Vec<ProcessId> = (0..(num_groups * group_size) as u32)
        .map(ProcessId)
        .collect();

    // --- Crashes --------------------------------------------------------
    // At most one per group, restart always scheduled: a majority of every
    // group stays up through any window, and the restart path (volatile
    // timers lost, mail-while-down lost, retry machinery recovering both)
    // is the interesting one. Drawn before the workload so the op stream is
    // identical across protocols for a given seed.
    let mut drawn: Vec<RtCrash> = Vec::new();
    let mut crashed_groups: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        let victim = replicas[rng.gen_range(0..replicas.len())];
        let group = victim.0 as usize / group_size;
        if !crashed_groups.insert(group) {
            continue;
        }
        drawn.push(RtCrash {
            at: ms(rng.gen_range(500..4000)),
            node: victim,
            down_for: ms(rng.gen_range(500..3000)),
        });
    }
    let crashes = if token.protocol == Protocol::WhiteBox {
        drawn
    } else {
        Vec::new()
    };

    // --- Workload -------------------------------------------------------
    // The simulator explorer's command mix and key space.
    let num_ops = rng.gen_range(10..=25usize);
    let mut ops = Vec::with_capacity(num_ops);
    for _ in 0..num_ops {
        let client_index = rng.gen_range(0..num_clients);
        let at = ms(rng.gen_range(0..5000));
        let cmd = draw_kv_command(&mut rng);
        ops.push(PlannedOp {
            at,
            client_index,
            cmd,
        });
    }

    RtPlan {
        num_groups,
        group_size,
        num_clients,
        ops,
        crashes,
        horizon: HORIZON,
    }
}

/// A report plus the raw observables it was computed from, for tests that
/// compare two runs element by element rather than by digest.
#[derive(Debug, Clone)]
pub struct RtArtifacts {
    /// The checked report.
    pub report: RunReport,
    /// Every delivery record, in global log order.
    pub deliveries: Vec<DeliveryRecord>,
    /// FNV-1a digest of the scheduler's decision trace alone.
    pub trace_digest: u64,
}

/// What one deterministic run produced, before checking.
struct RawRun {
    deliveries: Vec<RuntimeDelivery>,
    trace_digest: u64,
    /// Every message the transport carried, converted for the Figure 6
    /// checkers; `None` for the baselines (whose wire format the white-box
    /// checkers do not read).
    whitebox_trace: Option<Vec<SentMessage>>,
}

fn drive<M: Clone + Send + 'static>(
    mut rt: DeterministicRuntime<M>,
    plan: &RtPlan,
    submissions: Vec<(Duration, ProcessId, AppMessage)>,
) -> DeterministicRuntime<M> {
    for (at, client, msg) in submissions {
        rt.schedule_submit(at, client, msg);
    }
    for crash in &plan.crashes {
        rt.schedule_crash(crash.at, crash.node, crash.down_for);
    }
    rt.run(plan.horizon);
    rt
}

fn run_raw(
    token: &SeedToken,
    plan: &RtPlan,
    cluster: &ClusterConfig,
    submissions: Vec<(Duration, ProcessId, AppMessage)>,
) -> Result<RawRun, String> {
    match token.protocol {
        Protocol::WhiteBox => {
            // Node order is the runtime's tie-break order: replicas in group
            // order (matching their process-id order), then clients.
            let mut nodes: Vec<BoxedNode<wbam_core::WhiteBoxMsg>> = Vec::new();
            for gc in cluster.groups() {
                for member in gc.members() {
                    let cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone())
                        .with_election_timeouts(HEARTBEAT, ELECTION_TIMEOUT)
                        .with_retry_timeout(RETRY_TIMEOUT);
                    nodes.push(Box::new(
                        WhiteBoxReplica::try_new(cfg).map_err(|e| e.to_string())?,
                    ));
                }
            }
            for client in cluster.clients() {
                nodes.push(Box::new(MulticastClient::new(
                    ClientConfig::new(*client, cluster.clone()).with_retry_timeout(RETRY_TIMEOUT),
                )));
            }
            let rt = drive(
                DeterministicRuntime::new(nodes, token.seed),
                plan,
                submissions,
            );
            let trace = rt
                .sent_messages()
                .into_iter()
                .map(|r| SentMessage {
                    from: r.from,
                    to: r.to,
                    msg: r.msg,
                })
                .collect();
            Ok(RawRun {
                deliveries: rt.deliveries(),
                trace_digest: rt.trace_digest(),
                whitebox_trace: Some(trace),
            })
        }
        Protocol::FastCast | Protocol::FtSkeen => {
            let mode = token.protocol.baseline_mode().expect("a baseline protocol");
            let mut nodes: Vec<BoxedNode<BaselineMsg>> = Vec::new();
            for gc in cluster.groups() {
                for member in gc.members() {
                    nodes.push(Box::new(
                        BaselineReplica::try_new(*member, gc.id(), cluster.clone(), mode)
                            .map_err(|e| e.to_string())?,
                    ));
                }
            }
            for client in cluster.clients() {
                nodes.push(Box::new(BaselineClient::new(
                    *client,
                    cluster.clone(),
                    RETRY_TIMEOUT,
                )));
            }
            let rt = drive(
                DeterministicRuntime::new(nodes, token.seed),
                plan,
                submissions,
            );
            Ok(RawRun {
                deliveries: rt.deliveries(),
                trace_digest: rt.trace_digest(),
                whitebox_trace: None,
            })
        }
        Protocol::Skeen => Err(format!(
            "{} has no deployed node loop to schedule",
            token.protocol.label()
        )),
    }
}

/// Runs a generated plan (the token's own, or one the minimizer shrank)
/// and judges it, also returning the raw delivery records and trace digest
/// for element-by-element twin-run comparison.
pub fn run_rt_artifacts(token: &SeedToken, plan: &RtPlan) -> RtArtifacts {
    let cluster = ClusterConfig::builder()
        .groups(plan.num_groups, plan.group_size)
        .clients(plan.num_clients)
        .build();
    let partitioner = Partitioner::new(plan.num_groups as u32);

    // One AppMessage per op, ids unique per client.
    let mut next_seq: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut submissions = Vec::with_capacity(plan.ops.len());
    let mut ops = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        let client = cluster.clients()[op.client_index % cluster.clients().len()];
        let seq = next_seq.entry(client).or_insert(0);
        let id = MsgId::new(client, *seq);
        *seq += 1;
        let dest = partitioner
            .destination_of(op.cmd.keys())
            .expect("generated commands have keys");
        let payload = serde_json::to_vec(&op.cmd).expect("commands encode");
        submissions.push((
            op.at,
            client,
            AppMessage::new(id, dest, Payload::from(payload)),
        ));
        ops.push(SubmittedOp {
            id,
            cmd: op.cmd.clone(),
            at: op.at,
        });
    }

    let raw = match run_raw(token, plan, &cluster, submissions) {
        Ok(raw) => raw,
        Err(e) => {
            return RtArtifacts {
                report: RunReport::unbuildable(*token, ops.len(), e),
                deliveries: Vec::new(),
                trace_digest: 0,
            }
        }
    };
    let deliveries: Vec<DeliveryRecord> = raw
        .deliveries
        .iter()
        .map(|d| DeliveryRecord {
            time: d.elapsed,
            process: d.process,
            group: cluster.group_of(d.process),
            msg_id: d.delivery.msg.id,
            global_ts: d.delivery.global_ts,
        })
        .collect();
    let verdict = RunLog {
        cluster: &cluster,
        ops: &ops,
        deliveries: &deliveries,
        trace: raw.whitebox_trace.as_deref(),
        // The channel transport is reliable; the only loss is mail
        // addressed to a down process, so only crashed replicas may carry
        // gaps or truncated suffixes.
        faulty: plan.crashes.iter().map(|c| c.node).collect(),
        lossy: false,
        excusals: BTreeMap::new(),
        drop_excusals: BTreeMap::new(),
        // The white-box retry machinery recovers crash-lost mail; the
        // baselines only run crash-free plans, where nothing is ever lost.
        require_termination: true,
    }
    .judge();
    RtArtifacts {
        report: RunReport::checked(
            *token,
            ops.len(),
            deliveries.len(),
            run_digest(&deliveries, raw.trace_digest),
            verdict,
        ),
        deliveries,
        trace_digest: raw.trace_digest,
    }
}

/// The deterministic-runtime engine: `rt1` tokens, [`RtPlan`] plans whose
/// shrink points are the crashes.
#[derive(Debug, Clone, Copy)]
pub struct RtEngine;

impl Engine for RtEngine {
    type Plan = RtPlan;

    const VERSION: TokenVersion = TokenVersion::Rt1;
    const REPLAYS: &'static [TokenVersion] = &[TokenVersion::Rt1];
    const BIN: &'static str = "rt_explorer";
    const RUNS: &'static str = "deployed-loop interleavings";
    const CLEAN: &'static str =
        "no violations: Figure 6 invariants, the linearizability oracle and \
                                 termination held on every interleaving";
    const FAILING: &'static str = "FAILING INTERLEAVING";

    fn generate(token: &SeedToken) -> RtPlan {
        generate_rt_plan(token)
    }

    fn run(token: &SeedToken, plan: &RtPlan) -> RunReport {
        run_rt_artifacts(token, plan).report
    }

    fn faults(plan: &RtPlan) -> (usize, usize) {
        (plan.crashes.len(), 0)
    }

    fn shrink_points(plan: &RtPlan) -> usize {
        plan.crashes.len()
    }

    fn shrink(plan: &RtPlan, point: usize) -> Option<RtPlan> {
        let mut shrunk = plan.clone();
        shrunk.crashes.remove(point);
        Some(shrunk)
    }

    fn describe(plan: &RtPlan) -> Vec<String> {
        let mut lines = vec![format!(
            "cluster: {} groups x {} replicas, {} clients, {} ops, {} crash/restart(s)",
            plan.num_groups,
            plan.group_size,
            plan.num_clients,
            plan.ops.len(),
            plan.crashes.len(),
        )];
        for crash in &plan.crashes {
            lines.push(format!(
                "crash: {} at {:?} for {:?}",
                crash.node, crash.at, crash.down_for
            ));
        }
        lines
    }

    fn outcome(report: &RunReport) -> String {
        format!(
            "digest {:016x}; {}/{} ops completed, {} deliveries",
            report.digest, report.completed, report.ops, report.deliveries,
        )
    }

    fn fault_summary(report: &ExplorationReport<RtPlan>) -> String {
        format!("{} crash/restarts scheduled", report.crashes)
    }

    fn minimized(plan: &RtPlan) -> String {
        format!("minimized crash schedule: {:?}", plan.crashes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{explore, ExplorerConfig};
    use crate::token::{assert_tokens_round_trip, TokenVersion};

    #[test]
    fn tokens_round_trip_through_display_and_parse() {
        // Other engines' tokens and the sim-only protocol are rejected.
        assert_tokens_round_trip(
            TokenVersion::Rt1,
            "WBAM_SEED=rt1:",
            &Protocol::evaluated(),
            &[
                "v2:WbCast:1",
                "n1:WbCast:1",
                "rt1:Skeen1:1",
                "rt1:WbCast:zz",
            ],
        );
    }

    #[test]
    fn plans_are_deterministic_and_share_the_workload_across_protocols() {
        let seed = 7u64;
        let wb = SeedToken {
            version: TokenVersion::Rt1,
            protocol: Protocol::WhiteBox,
            seed,
        };
        assert_eq!(generate_rt_plan(&wb), generate_rt_plan(&wb));
        let fc = generate_rt_plan(&SeedToken {
            protocol: Protocol::FastCast,
            ..wb
        });
        let wb_plan = generate_rt_plan(&wb);
        assert_eq!(wb_plan.ops, fc.ops, "op stream must not shift per protocol");
        assert!(fc.crashes.is_empty(), "baselines run crash-free");
    }

    #[test]
    fn replaying_a_token_reproduces_the_run_byte_for_byte() {
        let token = SeedToken::sweep(TokenVersion::Rt1, 1, 0, &Protocol::evaluated());
        let plan = generate_rt_plan(&token);
        let a = run_rt_artifacts(&token, &plan);
        let b = run_rt_artifacts(&token, &plan);
        assert_eq!(a.report.digest, b.report.digest);
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.report.violation, b.report.violation);
    }

    #[test]
    fn a_small_rt_exploration_passes_cleanly() {
        let report = explore::<RtEngine>(&ExplorerConfig {
            schedules: 3,
            base_seed: 3,
            protocols: Protocol::evaluated().to_vec(),
            minimize: false,
        });
        assert_eq!(report.schedules, 3);
        assert!(report.total_ops > 0);
        assert_eq!(
            report.total_completed, report.total_ops,
            "every op completes on these plans"
        );
        assert!(
            report.findings.is_empty(),
            "unexpected finding {}: {}",
            report.findings[0].token,
            report.findings[0].description
        );
    }
}
