//! The one verdict every seeded engine's runs are judged by.
//!
//! The simulator explorer ([`crate::explorer`]), the deterministic-runtime
//! explorer ([`crate::rt`]) and the deployed chaos driver ([`crate::chaos`])
//! each reduce a finished run to a [`RunLog`]: the submitted key-value
//! operations, every delivery as a [`DeliveryRecord`] (replica applies carry
//! their group, client completions carry `group: None`), the white-box
//! message trace when the engine records one, and what the fault plan
//! excuses. [`RunLog::judge`] then checks, in order:
//!
//! 1. the Figure 6 invariants on the message trace (`wbam_core::invariants`:
//!    unique proposals, deliver agreement, per-group local timestamps);
//! 2. the delivery logs: every replica delivery carries a global timestamp,
//!    and [`check_total_order`] holds over the per-process logs (agreement
//!    on each message's timestamp across observers, uniqueness, integrity
//!    and timestamp order);
//! 3. the key-value linearizability oracle: each replica's log replayed
//!    into its own [`KvStore`], fed with the client invocations and
//!    completions to [`KvHistory::check_excusing`] (which also flags an
//!    operation completed at its client but applied nowhere);
//! 4. termination, where the engine's plan guarantees it.
//!
//! Completions are counted before any check, so a failing run still reports
//! how many operations completed.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use wbam_core::invariants::{
    check_deliver_agreement, check_deliver_local_ts_per_group, check_total_order,
    check_unique_proposals, SentMessage,
};
use wbam_kvstore::{KvCommand, KvHistory, KvStore, Partitioner};
use wbam_simnet::DeliveryRecord;
use wbam_types::hash::Fnv64;
use wbam_types::{ClusterConfig, MsgId, ProcessId, Timestamp};

/// One key-value operation a client submitted.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedOp {
    /// The multicast carrying the operation.
    pub id: MsgId,
    /// The command.
    pub cmd: KvCommand,
    /// Invocation time.
    pub at: Duration,
}

/// One finished run, in the form every engine reduces its output to.
#[derive(Debug, Clone)]
pub struct RunLog<'a> {
    /// The run's topology: groups for the per-group trace check and the key
    /// partitioning.
    pub cluster: &'a ClusterConfig,
    /// Every submitted operation.
    pub ops: &'a [SubmittedOp],
    /// Every delivery, each process's in its own log order. A restarted
    /// deployed replica reports under a separate observer id (see
    /// [`crate::chaos::RESTART_OBSERVER_BASE`]).
    pub deliveries: &'a [DeliveryRecord],
    /// Every white-box protocol message sent, if the engine recorded them.
    pub trace: Option<&'a [SentMessage]>,
    /// Processes the plan crashed: they may carry gaps and truncated logs.
    pub faulty: BTreeSet<ProcessId>,
    /// Whether the plan can lose messages to live processes.
    pub lossy: bool,
    /// Per-process state-transfer watermarks below which history may be
    /// missing (see [`KvHistory::check_excusing`]).
    pub excusals: BTreeMap<ProcessId, Timestamp>,
    /// Per-process operations dropped on a pruned-history notice.
    pub drop_excusals: BTreeMap<ProcessId, BTreeSet<MsgId>>,
    /// Whether every submitted operation must have completed.
    pub require_termination: bool,
}

/// The outcome of [`RunLog::judge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Operations that completed at their client.
    pub completed: usize,
    /// Reads the linearizability oracle checked (0 if it did not run).
    pub checked_reads: usize,
    /// The first violation found, prefixed with its category: `invariant:`,
    /// `linearizability:` or `termination:`.
    pub violation: Option<String>,
}

impl RunLog<'_> {
    /// Runs every check and returns the first violation, if any.
    pub fn judge(&self) -> Verdict {
        let mut history = KvHistory {
            partitions: self.cluster.groups().len() as u32,
            ..KvHistory::default()
        };
        for op in self.ops {
            history.invoke(op.id, op.cmd.clone(), op.at);
        }
        for d in self.deliveries.iter().filter(|d| d.group.is_none()) {
            history.complete(d.msg_id, d.time);
        }
        let completed = history
            .ops
            .iter()
            .filter(|o| o.completed_at.is_some())
            .count();
        let (checked_reads, violation) = match self.check(history) {
            Ok(checked_reads) => (checked_reads, None),
            Err(violation) => (0, Some(violation)),
        };
        Verdict {
            completed,
            checked_reads,
            violation,
        }
    }

    /// The checks, in order; returns the oracle's checked-read count.
    fn check(&self, mut history: KvHistory) -> Result<usize, String> {
        let invariant = |v| format!("invariant: {v}");
        if let Some(trace) = self.trace {
            check_unique_proposals(trace)
                .and_then(|()| check_deliver_agreement(trace))
                .and_then(|()| {
                    check_deliver_local_ts_per_group(trace, |p| self.cluster.group_of(p))
                })
                .map_err(invariant)?;
        }

        // Replica deliveries carry their group; client completions do not.
        let replicas = || self.deliveries.iter().filter_map(|d| Some((d, d.group?)));
        let mut per_process: BTreeMap<ProcessId, Vec<(MsgId, Timestamp)>> = BTreeMap::new();
        for (d, _) in replicas() {
            let gts = d.global_ts.ok_or_else(|| {
                format!(
                    "invariant: {} delivered {} without a global timestamp",
                    d.process, d.msg_id
                )
            })?;
            per_process
                .entry(d.process)
                .or_default()
                .push((d.msg_id, gts));
        }
        check_total_order(&per_process).map_err(invariant)?;

        let cmds: BTreeMap<MsgId, &KvCommand> = self.ops.iter().map(|o| (o.id, &o.cmd)).collect();
        let partitioner = Partitioner::new(history.partitions);
        let mut stores: BTreeMap<ProcessId, KvStore> = BTreeMap::new();
        for (d, group) in replicas() {
            let cmd = cmds.get(&d.msg_id).ok_or_else(|| {
                format!(
                    "invariant: {} delivered {} which was never submitted",
                    d.process, d.msg_id
                )
            })?;
            let read = stores
                .entry(d.process)
                .or_insert_with(|| KvStore::with_partitioner(group, partitioner))
                .apply_read(cmd);
            let gts = d.global_ts.expect("replica deliveries checked above");
            history.applied(d.msg_id, d.process, group, gts, read);
        }
        let oracle = history
            .check_excusing(
                &self.faulty,
                self.lossy,
                &self.excusals,
                &self.drop_excusals,
            )
            .map_err(|v| format!("linearizability: {v}"))?;

        if self.require_termination {
            let undelivered: Vec<MsgId> = history
                .ops
                .iter()
                .filter(|o| o.completed_at.is_none())
                .map(|o| o.id)
                .collect();
            if let Some(first) = undelivered.first() {
                return Err(format!(
                    "termination: {} of {} operations never completed (first: {first})",
                    undelivered.len(),
                    self.ops.len(),
                ));
            }
        }
        Ok(oracle.checked_reads)
    }
}

/// The replay digest of a run: FNV-1a over every delivery record in log
/// order, then `tail`, the engine's own fingerprint (the simulator's sent
/// message count, the deterministic scheduler's decision-trace digest).
/// Equal digests mean byte-for-byte identical runs.
pub fn run_digest(deliveries: &[DeliveryRecord], tail: u64) -> u64 {
    let mut digest = Fnv64::new();
    for d in deliveries {
        let gts = d.global_ts.unwrap_or(Timestamp::BOTTOM);
        for word in [
            d.time.as_nanos() as u64,
            u64::from(d.process.0),
            u64::from(d.msg_id.sender.0),
            d.msg_id.seq,
            gts.time(),
            gts.group().map(|g| u64::from(g.0) + 1).unwrap_or(0),
        ] {
            digest.write_u64(word);
        }
    }
    digest.write_u64(tail);
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::GroupId;

    /// Client process of the synthetic runs: one group of three replicas
    /// (p0–p2) and one client (p3).
    const CLIENT: ProcessId = ProcessId(3);

    fn op(seq: u64) -> MsgId {
        MsgId::new(CLIENT, seq)
    }

    fn gts(time: u64) -> Option<Timestamp> {
        Some(Timestamp::new(time, GroupId(0)))
    }

    fn record(process: u32, msg: MsgId, global_ts: Option<Timestamp>) -> DeliveryRecord {
        DeliveryRecord {
            time: Duration::from_millis(10 + msg.seq),
            process: ProcessId(process),
            group: (process != CLIENT.0).then_some(GroupId(0)),
            msg_id: msg,
            global_ts,
        }
    }

    /// Two submitted puts, applied in order by every replica and completed
    /// at the client: a clean run.
    fn clean() -> (Vec<SubmittedOp>, Vec<DeliveryRecord>) {
        let ops = (0..2)
            .map(|seq| SubmittedOp {
                id: op(seq),
                cmd: KvCommand::put(&format!("k{seq}"), 1),
                at: Duration::from_millis(seq),
            })
            .collect();
        let mut deliveries = Vec::new();
        for replica in 0..3 {
            deliveries.push(record(replica, op(0), gts(1)));
            deliveries.push(record(replica, op(1), gts(2)));
        }
        deliveries.push(record(CLIENT.0, op(0), gts(1)));
        deliveries.push(record(CLIENT.0, op(1), gts(2)));
        (ops, deliveries)
    }

    fn judge(
        ops: &[SubmittedOp],
        deliveries: &[DeliveryRecord],
        require_termination: bool,
    ) -> Verdict {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        RunLog {
            cluster: &cluster,
            ops,
            deliveries,
            trace: None,
            faulty: BTreeSet::new(),
            lossy: false,
            excusals: BTreeMap::new(),
            drop_excusals: BTreeMap::new(),
            require_termination,
        }
        .judge()
    }

    /// Judges the clean run after `corrupt`, expecting a violation
    /// containing `expected`.
    fn assert_caught(expected: &str, corrupt: impl FnOnce(&mut Vec<DeliveryRecord>)) {
        let (ops, mut deliveries) = clean();
        corrupt(&mut deliveries);
        let verdict = judge(&ops, &deliveries, true);
        let violation = verdict.violation.unwrap_or_default();
        assert!(
            violation.contains(expected),
            "expected `{expected}`, got `{violation}`"
        );
    }

    #[test]
    fn a_clean_run_passes_and_counts_its_completions() {
        let (ops, deliveries) = clean();
        let verdict = judge(&ops, &deliveries, true);
        assert_eq!(verdict.violation, None);
        assert_eq!(verdict.completed, 2);
    }

    #[test]
    fn a_replica_delivery_without_a_global_timestamp_is_caught() {
        assert_caught("p1 delivered m(p3,0) without a global timestamp", |d| {
            d[2].global_ts = None;
        });
    }

    #[test]
    fn a_never_submitted_op_is_caught() {
        assert_caught("p0 delivered m(p3,9) which was never submitted", |d| {
            d.insert(2, record(0, op(9), gts(3)));
        });
    }

    #[test]
    fn observers_disagreeing_on_a_global_timestamp_are_caught() {
        // p1 delivers op 0 at timestamp 5 where p0 delivered it at 1.
        assert_caught("invariant 3b violated", |d| d[2].global_ts = gts(5));
    }

    #[test]
    fn a_completion_applied_nowhere_is_caught() {
        // Op 1 completed at the client, but every replica log lost it.
        assert_caught(
            "m(p3,1) completed at its client but was never applied",
            |d| {
                d.retain(|r| r.group.is_none() || r.msg_id != op(1));
            },
        );
    }

    #[test]
    fn an_out_of_order_delivery_is_caught_and_completions_still_count() {
        let (ops, mut deliveries) = clean();
        deliveries.swap(4, 5); // p2 delivers op 1 before op 0
        let verdict = judge(&ops, &deliveries, true);
        let violation = verdict.violation.unwrap_or_default();
        assert!(
            violation.starts_with("invariant: ordering violated at p2"),
            "{violation}"
        );
        // Completions are counted before any check runs.
        assert_eq!(verdict.completed, 2);
    }

    #[test]
    fn an_unfinished_op_fails_termination_only_when_required() {
        let (ops, mut deliveries) = clean();
        deliveries.pop(); // op 1 never completes at the client
        let verdict = judge(&ops, &deliveries, true);
        assert_eq!(
            verdict.violation.as_deref(),
            Some("termination: 1 of 2 operations never completed (first: m(p3,1))")
        );
        assert_eq!(verdict.completed, 1);
        assert_eq!(judge(&ops, &deliveries, false).violation, None);
    }
}
