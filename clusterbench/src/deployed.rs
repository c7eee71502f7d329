//! The deployed run: six `wbamd` replica processes from one `DeploySpec`, a
//! `MulticastClient` hosted in this process on one `TcpNode`, the seeded
//! load, OS accounting around the measured window, and the replica-log
//! judgement afterwards.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wbam_core::{MulticastClient, WhiteBoxMsg};
use wbam_harness::{DeliveryLine, DeploySpec, Protocol};
use wbam_runtime::TcpNode;
use wbam_types::wire::from_json;
use wbam_types::{
    Action, AppMessage, Destination, Event, GroupId, MsgId, Node, Payload, ProcessId,
};

use crate::judge::{gts_of, judge, Gts, Submitted, Verdict};
use crate::procfs::{self, NetCounters, RoleCounters};
use crate::stats::sorted;
use crate::workload::{
    self, Pacing, Workload, GROUP_SIZE, REPLICAS, WARMUP_OPS, WARMUP_OUTSTANDING,
};

/// One setup attempt may take this long before it counts as failed.
const SETUP_LIMIT: Duration = Duration::from_secs(15);
/// After the window closes, outstanding multicasts get this long to complete
/// before they count as failed. Longer than two client retry periods, so a
/// multicast caught by the failover still completes.
const GRACE: Duration = Duration::from_secs(4);
/// Replica logs are quiescent once no log has grown for this long.
const QUIET: Duration = Duration::from_millis(250);
/// Upper bound on the quiescence wait.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// A replica asked to stop (stdin EOF) is SIGKILLed after this long.
const STOP_LIMIT: Duration = Duration::from_secs(3);
/// The window is cut into slices of this length; the end-to-end metrics are
/// medians over slices. Load from outside the benchmark (hypervisor steal on
/// a shared host) comes in bursts of tens to hundreds of milliseconds, so
/// short slices let the median step over them.
pub const SLICE: Duration = Duration::from_millis(250);

/// The client's process id: replicas are `0..REPLICAS`.
pub const CLIENT: ProcessId = ProcessId(REPLICAS as u32);

pub fn group_of(replica: u32) -> GroupId {
    GroupId(replica / GROUP_SIZE as u32)
}

/// The deployment spec every workload runs on.
pub fn spec_for(w: &Workload) -> Result<DeploySpec, String> {
    let mut spec =
        DeploySpec::loopback_free_ports(Protocol::WhiteBox, workload::NUM_GROUPS, GROUP_SIZE, 1)
            .map_err(|e| format!("reserving ports: {e}"))?;
    configure(&mut spec, w);
    Ok(spec)
}

/// Applies the workload's batching and the shared compaction and timeouts.
pub fn configure(spec: &mut DeploySpec, w: &Workload) {
    spec.max_batch = w.max_batch;
    spec.batch_delay_ms = w.batch_delay_ms;
    spec.compaction_interval = workload::COMPACTION_INTERVAL;
    spec.compaction_lag = workload::COMPACTION_LAG;
    spec.heartbeat_ms = workload::HEARTBEAT_MS;
    spec.election_timeout_ms = workload::ELECTION_TIMEOUT_MS;
    spec.retry_timeout_ms = workload::RETRY_TIMEOUT_MS;
}

/// The client node, wrapped to count retry-timer firings that re-sent a
/// multicast (a timer that finds its multicast already complete sends
/// nothing and is not a retry).
struct RetryCounting {
    inner: MulticastClient,
    retries: Arc<AtomicU64>,
}

impl Node for RetryCounting {
    type Msg = WhiteBoxMsg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_event(&mut self, now: Duration, event: Event<WhiteBoxMsg>) -> Vec<Action<WhiteBoxMsg>> {
        let timer = matches!(event, Event::Timer { .. });
        let actions = self.inner.on_event(now, event);
        if timer && actions.iter().any(|a| matches!(a, Action::Send { .. })) {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        actions
    }
}

struct Replica {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    pid: u32,
}

impl Drop for Replica {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running cluster. Dropping it kills and reaps every replica and stops
/// the client node, on every exit path.
pub struct Cluster {
    pub spec: DeploySpec,
    dir: PathBuf,
    replicas: Vec<Replica>,
    client: Option<TcpNode<WhiteBoxMsg>>,
    retries: Arc<AtomicU64>,
    /// Every multicast submitted (warm-up and measured) by message id.
    pub submitted: BTreeMap<MsgId, Submitted>,
    /// Start time (submission or due time) of each outstanding multicast.
    pending: HashMap<MsgId, Duration>,
    next_seq: u64,
    seen: u64,
    /// Established connections to the cluster's ports after warm-up.
    pub links_after_warmup: usize,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(node) = self.client.take() {
            node.shutdown();
        }
    }
}

fn spawn_replica(wbamd: &Path, dir: &Path, id: u32) -> Result<Replica, String> {
    let stderr = File::create(dir.join(format!("p{id}.stderr"))).map_err(|e| e.to_string())?;
    let mut child = Command::new(wbamd)
        .arg("--spec")
        .arg(dir.join("spec.json"))
        .arg("--id")
        .arg(id.to_string())
        .arg("--deliveries")
        .arg(dir.join(format!("p{id}.jsonl")))
        // Stdin EOF stops the replica gracefully, and also stops it if this
        // process dies without reaching its own cleanup.
        .arg("--stdin-stop")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr))
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", wbamd.display()))?;
    let pid = child.id();
    let stdin = child.stdin.take();
    Ok(Replica {
        child: Some(child),
        stdin,
        pid,
    })
}

/// Outcome of the measured window.
#[derive(Debug, Default)]
pub struct Window {
    pub start: Duration,
    pub length: Duration,
    pub attempted: u64,
    /// `(start, completion)` of every completed measured multicast, by
    /// completion; start is the submission (closed loop) or due time (open
    /// loop).
    pub completions: Vec<(Duration, Duration)>,
    /// Slice boundaries: time and CPU ns so far of the replicas plus the
    /// client process.
    pub marks: Vec<(Duration, u64)>,
    pub send_lags_ms: Vec<f64>,
    pub kill_time: Option<Duration>,
    pub retries: u64,
    /// OS counters over the window, per replica (the killed one up to the
    /// kill), for the client process and for the network namespace.
    pub replica_cpu: Vec<RoleCounters>,
    pub client_cpu_ns: u64,
    pub net: NetCounters,
    pub replica_rss_kb: Vec<u64>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window: load from outside the benchmark.
    pub host_steal: f64,
    measured: Vec<MsgId>,
}

impl Window {
    /// The longest interval without a completion that spans the kill.
    pub fn unavailable(&self) -> Option<Duration> {
        let kill = self.kill_time?;
        let done = || self.completions.iter().map(|&(_, d)| d);
        let before = done().filter(|&t| t <= kill).max().unwrap_or(kill);
        let after = done().filter(|&t| t > kill).min()?;
        Some(after - before)
    }

    /// Multicasts completed within the window.
    pub fn completed_in_window(&self) -> u64 {
        let end = self.start + self.length;
        self.completions
            .iter()
            .filter(|&&(_, d)| d >= self.start && d <= end)
            .count() as u64
    }

    /// Per slice: completions per second, CPU µs per completion, and the
    /// latencies (ms, ascending) of the multicasts that started in it.
    pub fn slices(&self) -> Vec<(f64, f64, Vec<f64>)> {
        self.marks
            .windows(2)
            .map(|m| {
                let ((t0, c0), (t1, c1)) = (m[0], m[1]);
                let done = self
                    .completions
                    .iter()
                    .filter(|&&(_, d)| d >= t0 && d < t1)
                    .count();
                let lat = sorted(
                    self.completions
                        .iter()
                        .filter(|&&(s, _)| s >= t0 && s < t1)
                        .map(|&(s, d)| (d - s).as_secs_f64() * 1e3)
                        .collect(),
                );
                let cpu_us = c1.saturating_sub(c0) as f64 / 1e3;
                let per_msg = if done == 0 { 0.0 } else { cpu_us / done as f64 };
                (done as f64 / (t1 - t0).as_secs_f64(), per_msg, lat)
            })
            .collect()
    }
}

/// Everything a deployed run measured and judged.
#[derive(Debug, Default)]
pub struct Outcome {
    pub window: Window,
    pub verdict: Verdict,
    /// Measured multicasts that did not complete or failed the replica check.
    pub failed: u64,
    pub warmup_incomplete: u64,
    pub dropped_frames: u64,
    pub graceful_stops: usize,
    pub log_lines: usize,
}

impl Cluster {
    /// Spawns the replicas, waits until they listen, starts the client node
    /// and runs the warm-up. Returns the cluster and its setup time.
    pub fn start(
        wbamd: &Path,
        w: &Workload,
        seed: u64,
        dir: PathBuf,
    ) -> Result<(Cluster, Duration), String> {
        let begin = Instant::now();
        let spec = spec_for(w)?;
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(
            dir.join("spec.json"),
            spec.to_json().map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        let mut cluster = Cluster {
            spec,
            dir,
            replicas: Vec::new(),
            client: None,
            retries: Arc::new(AtomicU64::new(0)),
            submitted: BTreeMap::new(),
            pending: HashMap::new(),
            next_seq: 0,
            seen: 0,
            links_after_warmup: 0,
        };
        for id in 0..REPLICAS as u32 {
            let replica = spawn_replica(wbamd, &cluster.dir, id)?;
            cluster.replicas.push(replica);
        }
        let ports = cluster.replica_ports()?;
        loop {
            if procfs::parse_listening_ports(&procfs::net_tcp()).is_superset(&ports) {
                break;
            }
            for (id, r) in cluster.replicas.iter_mut().enumerate() {
                if let Some(Ok(Some(status))) = r.child.as_mut().map(Child::try_wait) {
                    return Err(format!("replica p{id} exited during setup: {status}"));
                }
            }
            if begin.elapsed() > SETUP_LIMIT {
                return Err("replicas did not start listening".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let client = cluster
            .spec
            .whitebox_client(CLIENT)
            .map_err(|e| e.to_string())?;
        let node = TcpNode::spawn(
            Box::new(RetryCounting {
                inner: client,
                retries: Arc::clone(&cluster.retries),
            }),
            &cluster.spec.addr_map().map_err(|e| e.to_string())?,
            false,
        )
        .map_err(|e| format!("client node: {e}"))?;
        cluster.client = Some(node);

        // Warm-up: closed loop, every op to both groups.
        let mut issued = 0u64;
        let mut done = 0u64;
        while issued < WARMUP_OPS.min(WARMUP_OUTSTANDING) {
            let op = workload::op(seed, w, issued, true);
            let now = cluster.uptime();
            cluster.submit(op, now)?;
            issued += 1;
        }
        while done < WARMUP_OPS {
            if begin.elapsed() > SETUP_LIMIT {
                return Err(format!("warm-up stalled at {done}/{WARMUP_OPS}"));
            }
            for _ in cluster.wait_completions(Duration::from_millis(20))? {
                done += 1;
                if issued < WARMUP_OPS {
                    let op = workload::op(seed, w, issued, true);
                    let now = cluster.uptime();
                    cluster.submit(op, now)?;
                    issued += 1;
                }
            }
        }
        let setup = begin.elapsed();
        cluster.links_after_warmup = procfs::count_established_to(&procfs::net_tcp(), &ports);
        Ok((cluster, setup))
    }

    fn replica_ports(&self) -> Result<BTreeSet<u16>, String> {
        self.spec.addrs[..REPLICAS]
            .iter()
            .map(|a| {
                a.rsplit(':')
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("bad address {a}"))
            })
            .collect()
    }

    fn node(&self) -> &TcpNode<WhiteBoxMsg> {
        self.client.as_ref().expect("client node runs until drop")
    }

    fn uptime(&self) -> Duration {
        self.node().uptime()
    }

    /// Submits one op, timing it from `start`.
    fn submit(&mut self, op: workload::Op, start: Duration) -> Result<MsgId, String> {
        let id = MsgId::new(CLIENT, self.next_seq);
        self.next_seq += 1;
        let dest = Destination::new(op.dest.iter().copied()).map_err(|e| e.to_string())?;
        self.submitted.insert(
            id,
            Submitted {
                dest: op.dest,
                completed_gts: None,
            },
        );
        self.pending.insert(id, start);
        self.node()
            .submit(AppMessage::new(id, dest, Payload::from(op.payload)))
            .map_err(|e| e.to_string())?;
        Ok(id)
    }

    /// Waits up to `timeout` for completions and returns them as
    /// `(msg, start, completion time)`.
    fn wait_completions(
        &mut self,
        timeout: Duration,
    ) -> Result<Vec<(MsgId, Duration, Duration)>, String> {
        let node = self.node();
        node.wait_for_total(self.seen + 1, timeout)
            .map_err(|e| e.to_string())?;
        let drained = node.drain_deliveries().map_err(|e| e.to_string())?;
        self.seen += drained.len() as u64;
        let mut out = Vec::with_capacity(drained.len());
        for d in drained {
            let id = d.delivery.msg.id;
            let Some(start) = self.pending.remove(&id) else {
                continue;
            };
            if let Some(s) = self.submitted.get_mut(&id) {
                s.completed_gts = Some(gts_of(d.delivery.global_ts));
            }
            out.push((id, start, d.elapsed));
        }
        Ok(out)
    }

    fn sample_replicas(&self) -> Vec<RoleCounters> {
        self.replicas
            .iter()
            .map(|r| procfs::roles_of(r.pid))
            .collect()
    }

    /// Runs the measured window of `w` for `length`, then lets outstanding
    /// multicasts finish (bounded by [`GRACE`]).
    pub fn measure(&mut self, w: &Workload, seed: u64, length: Duration) -> Result<Window, String> {
        let me = std::process::id();
        let mut win = Window {
            length,
            ..Window::default()
        };
        let mut pids: Vec<u32> = self.replicas.iter().map(|r| r.pid).collect();
        pids.push(me);
        // CPU of every process, keeping the last reading of one that died.
        let mut last_cpu: Vec<u64> = vec![0; pids.len()];
        let mut cpu_now = |pids: &[u32]| -> u64 {
            for (i, &pid) in pids.iter().enumerate() {
                if let Some(ns) = procfs::cpu_ns_of(pid) {
                    last_cpu[i] = ns;
                }
            }
            last_cpu.iter().sum()
        };
        let cpu0 = self.sample_replicas();
        let client0 = procfs::cpu_ns_of(me).unwrap_or(0);
        let net0 = procfs::net_counters();
        let host0 = procfs::host_cpu();
        let retries0 = self.retries.load(Ordering::Relaxed);
        let start = self.uptime();
        win.start = start;
        win.marks.push((start, cpu_now(&pids)));
        let end = start + length;
        let kill_at = w.kill_at.map(|f| start + length.mul_f64(f));
        let mut cpu1: Option<Vec<RoleCounters>> = None;
        let mut victim_cpu: Option<RoleCounters> = None;
        let mut victim_rss: Option<u64> = None;
        let mut client1 = 0;
        let mut net1 = NetCounters::default();
        let mut next = 0u64;

        if let Pacing::Closed { outstanding } = w.pacing {
            for _ in 0..outstanding {
                let id = self.submit(workload::op(seed, w, next, false), self.uptime())?;
                win.measured.push(id);
                next += 1;
            }
        }
        loop {
            let now = self.uptime();
            let next_mark = start + SLICE * win.marks.len() as u32;
            if now >= next_mark && next_mark <= end {
                win.marks.push((now, cpu_now(&pids)));
            }
            if cpu1.is_none() && now >= end {
                // The window closes when the counters are read.
                win.length = now - start;
                cpu1 = Some(self.sample_replicas());
                client1 = procfs::cpu_ns_of(me).unwrap_or(0);
                net1 = procfs::net_counters();
                win.host_steal = procfs::host_cpu().since(host0).steal_share();
                win.replica_rss_kb = self
                    .replicas
                    .iter()
                    .map(|r| procfs::peak_rss_kb(r.pid).unwrap_or(0))
                    .collect();
            }
            if cpu1.is_some() && (self.pending.is_empty() || now >= end + GRACE) {
                break;
            }
            if kill_at.is_some_and(|k| now >= k) && win.kill_time.is_none() {
                let victim = &mut self.replicas[0];
                victim_cpu = Some(procfs::roles_of(victim.pid));
                victim_rss = procfs::peak_rss_kb(victim.pid);
                if let Some(mut child) = victim.child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                win.kill_time = Some(self.uptime());
            }
            // Open loop: submit everything due, timed from its due time.
            let mut timeout = Duration::from_millis(10);
            if let Some(period) = w.open_period() {
                loop {
                    let due = start + period.mul_f64(next as f64);
                    if due >= end {
                        break;
                    }
                    let now = self.uptime();
                    if due > now {
                        timeout = timeout.min(due - now);
                        break;
                    }
                    win.send_lags_ms.push((now - due).as_secs_f64() * 1e3);
                    let id = self.submit(workload::op(seed, w, next, false), due)?;
                    win.measured.push(id);
                    next += 1;
                }
            }
            for (_, begun, done) in self.wait_completions(timeout)? {
                win.completions.push((begun, done.max(begun)));
                if matches!(w.pacing, Pacing::Closed { .. }) && self.uptime() < end {
                    let id = self.submit(workload::op(seed, w, next, false), self.uptime())?;
                    win.measured.push(id);
                    next += 1;
                }
            }
        }
        win.attempted = win.measured.len() as u64;
        win.retries = self.retries.load(Ordering::Relaxed) - retries0;
        let mut cpu1 = cpu1.expect("sampled when the window closed");
        if let (Some(c), Some(rss)) = (victim_cpu, victim_rss) {
            cpu1[0] = c;
            win.replica_rss_kb[0] = rss;
        }
        win.replica_cpu = cpu1
            .into_iter()
            .zip(cpu0)
            .map(|(b, a)| b.since(a))
            .collect();
        win.client_cpu_ns = client1.saturating_sub(client0);
        win.net = NetCounters {
            out_segs: net1.out_segs.saturating_sub(net0.out_segs),
            lo_tx_bytes: net1.lo_tx_bytes.saturating_sub(net0.lo_tx_bytes),
        };
        Ok(win)
    }

    /// Waits for the replica logs to go quiet, stops the replicas gracefully,
    /// and judges their logs against what the client submitted.
    pub fn finish(mut self, win: Window) -> Outcome {
        let mut out = Outcome::default();
        let killed: BTreeSet<u32> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.child.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        let logs: Vec<PathBuf> = (0..REPLICAS)
            .map(|i| self.dir.join(format!("p{i}.jsonl")))
            .collect();
        let size = |p: &PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        let begin = Instant::now();
        let mut last: Vec<u64> = logs.iter().map(size).collect();
        let mut quiet_since = Instant::now();
        while begin.elapsed() < DRAIN_LIMIT && quiet_since.elapsed() < QUIET {
            std::thread::sleep(Duration::from_millis(25));
            let now: Vec<u64> = logs.iter().map(size).collect();
            if now != last {
                last = now;
                quiet_since = Instant::now();
            }
        }
        if let Some(node) = self.client.take() {
            out.dropped_frames += node.dropped_frames();
            node.shutdown();
        }
        // Graceful stop: closing stdin makes each replica drain its log and
        // print its final stats line.
        for r in &mut self.replicas {
            r.stdin.take();
        }
        for r in &mut self.replicas {
            let Some(child) = r.child.as_mut() else {
                continue;
            };
            let begin = Instant::now();
            while begin.elapsed() < STOP_LIMIT {
                if let Ok(Some(status)) = child.try_wait() {
                    if status.success() {
                        out.graceful_stops += 1;
                    }
                    r.child = None;
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.replicas.clear(); // kills and reaps anything still running
        for id in 0..REPLICAS {
            if let Ok(text) = std::fs::read_to_string(self.dir.join(format!("p{id}.stderr"))) {
                out.dropped_frames += dropped_frames_in(&text);
            }
        }

        let mut parsed: BTreeMap<u32, Vec<(MsgId, Gts)>> = BTreeMap::new();
        let mut parse_errors = Vec::new();
        for (id, path) in logs.iter().enumerate() {
            let id = id as u32;
            match read_log(path, killed.contains(&id)) {
                Ok(log) => {
                    out.log_lines += log.len();
                    parsed.insert(id, log);
                }
                Err(e) => parse_errors.push(e),
            }
        }
        out.verdict = judge(&self.submitted, &parsed, group_of, &killed);
        for e in parse_errors {
            out.verdict.violation_count += 1;
            out.verdict.violations.push(e);
        }
        let mut failed: BTreeSet<MsgId> = win
            .measured
            .iter()
            .filter(|id| self.submitted[id].completed_gts.is_none())
            .copied()
            .collect();
        let measured: BTreeSet<MsgId> = win.measured.iter().copied().collect();
        failed.extend(out.verdict.bad.intersection(&measured).copied());
        out.failed = failed.len() as u64;
        out.warmup_incomplete = self
            .submitted
            .iter()
            .filter(|(id, s)| !measured.contains(id) && s.completed_gts.is_none())
            .count() as u64;
        out.window = win;
        out
    }
}

/// The `dropped_frames=N` count on a replica's last stats line (the counter
/// is cumulative).
pub fn dropped_frames_in(stderr: &str) -> u64 {
    stderr
        .lines()
        .rev()
        .find_map(|l| {
            let rest = l.split("dropped_frames=").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Parses a replica delivery log. A SIGKILLed replica may leave one torn
/// final line, which `torn_tail_ok` tolerates.
fn read_log(path: &Path, torn_tail_ok: bool) -> Result<Vec<(MsgId, Gts)>, String> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let lines: Vec<String> = BufReader::new(file)
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match from_json::<DeliveryLine>(line) {
            Ok(d) => out.push((d.msg_id(), (d.gts_time, d.gts_group))),
            Err(_) if torn_tail_ok && i + 1 == lines.len() => {}
            Err(e) => return Err(format!("{} line {}: {e}", path.display(), i + 1)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_frames_come_from_the_last_stats_line() {
        let text = "wbamd: p1 stats: delivered=5 dropped_frames=2 by_peer={}\n\
                    wbamd: p1 graceful stop (stdin EOF): delivered=9 dropped_frames=3 by_peer={}\n";
        assert_eq!(dropped_frames_in(text), 3);
        assert_eq!(dropped_frames_in("wbamd: listener bind failed\n"), 0);
    }

    #[test]
    fn unavailability_spans_the_kill() {
        let ms = Duration::from_millis;
        let done = |ts: &[u64]| ts.iter().map(|&t| (ms(0), ms(t))).collect();
        let win = Window {
            completions: done(&[10, 20, 905, 900]),
            kill_time: Some(ms(25)),
            ..Window::default()
        };
        assert_eq!(win.unavailable(), Some(ms(880)));
        let no_kill = Window {
            completions: done(&[10]),
            ..Window::default()
        };
        assert_eq!(no_kill.unavailable(), None);
    }

    #[test]
    fn slices_split_completions_cpu_and_latency() {
        let ms = Duration::from_millis;
        let win = Window {
            start: ms(0),
            length: ms(2000),
            // Two completions in the first slice, one in the second; the
            // third started in the first slice.
            completions: vec![(ms(0), ms(100)), (ms(200), ms(300)), (ms(900), ms(1500))],
            marks: vec![(ms(0), 0), (ms(1000), 4_000_000), (ms(2000), 5_000_000)],
            ..Window::default()
        };
        assert_eq!(win.completed_in_window(), 3);
        let s = win.slices();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].0, s[0].1), (2.0, 2000.0));
        assert_eq!(s[0].2, vec![100.0, 100.0, 600.0]);
        assert_eq!((s[1].0, s[1].1), (1.0, 1000.0));
        assert!(s[1].2.is_empty());
    }
}
