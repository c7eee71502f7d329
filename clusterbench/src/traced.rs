//! The traced run: the same seeded workload replayed in process on
//! `DeterministicRuntime`, every node wrapped in a timing [`Traced`] node,
//! allocations counted by the binary's global allocator, and the codec timed
//! over the recorded traffic. Spans stay in memory until the run ends.

use std::any::Any;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use wbam_core::WhiteBoxMsg;
use wbam_harness::{DeploySpec, Protocol};
use wbam_runtime::{BoxedNode, DeterministicRuntime, RuntimeScript, ScriptEvent};
use wbam_types::wire::{decode_frame_slice, encode_frame_with, WireCodec};
use wbam_types::{Action, AppMessage, Destination, Event, MsgId, Node, Payload, ProcessId};

use crate::deployed::{configure, group_of, CLIENT};
use crate::judge::{gts_of, judge, Gts, Submitted, Verdict};
use crate::workload::{self, Pacing, Workload, GROUP_SIZE, REPLICAS};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting allocations per thread.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local `Cell` with no destructor,
// so touching it never allocates or re-enters the allocator.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

/// One `on_event` call: a child span of every multicast it names.
#[derive(Debug, Clone)]
pub struct EventSpan {
    pub node: u32,
    pub kind: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub msgs: Vec<MsgId>,
}

/// What a [`Traced`] node recorded.
#[derive(Debug, Default)]
pub struct NodeTrace {
    pub sends: u64,
    pub allocs: u64,
    pub spans: Vec<EventSpan>,
    /// Client only: multicast root spans, submit → completion (ns since the
    /// trace epoch).
    pub roots: HashMap<MsgId, (u64, Option<u64>)>,
}

/// A node wrapped to time `on_event`, count the actions it returns and the
/// allocations it makes, and name the multicasts each event carries.
pub struct Traced {
    inner: BoxedNode<WhiteBoxMsg>,
    epoch: Instant,
    pub trace: NodeTrace,
}

fn kind_of(event: &Event<WhiteBoxMsg>) -> &'static str {
    match event {
        Event::Init => "INIT",
        Event::Message { msg, .. } => msg.kind(),
        Event::Timer { .. } => "TIMER",
        Event::Multicast(_) => "SUBMIT",
        Event::BecomeLeader => "BECOME_LEADER",
        Event::Restart => "RESTART",
    }
}

/// The multicasts an event carries.
fn msgs_of(event: &Event<WhiteBoxMsg>) -> Vec<MsgId> {
    let msg = match event {
        Event::Multicast(m) => return vec![m.id],
        Event::Message { msg, .. } => msg,
        _ => return Vec::new(),
    };
    match msg {
        WhiteBoxMsg::Multicast { msg } | WhiteBoxMsg::Accept { msg, .. } => vec![msg.id],
        WhiteBoxMsg::Deliver { msg, .. } => vec![msg.id],
        WhiteBoxMsg::AcceptAck { msg_id, .. }
        | WhiteBoxMsg::StablePruned { msg_id, .. }
        | WhiteBoxMsg::ClientReply { msg_id, .. } => vec![*msg_id],
        WhiteBoxMsg::AcceptBatch { entries, .. } => entries.iter().map(|e| e.msg.id).collect(),
        WhiteBoxMsg::AcceptAckBatch { entries, .. } => entries.iter().map(|e| e.0).collect(),
        WhiteBoxMsg::DeliverBatch { entries, .. } => entries.iter().map(|e| e.msg.id).collect(),
        WhiteBoxMsg::NewLeaderAck { snapshot, .. } | WhiteBoxMsg::NewState { snapshot, .. } => {
            snapshot.records.keys().copied().collect()
        }
        _ => Vec::new(),
    }
}

impl Node for Traced {
    type Msg = WhiteBoxMsg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_event(&mut self, now: Duration, event: Event<WhiteBoxMsg>) -> Vec<Action<WhiteBoxMsg>> {
        let kind = kind_of(&event);
        let msgs = msgs_of(&event);
        let submit = matches!(event, Event::Multicast(_));
        let a0 = allocs();
        let t0 = Instant::now();
        let actions = self.inner.on_event(now, event);
        let t1 = Instant::now();
        self.trace.allocs += allocs() - a0;
        let start_ns = (t0 - self.epoch).as_nanos() as u64;
        let end_ns = (t1 - self.epoch).as_nanos() as u64;
        if submit {
            for &m in &msgs {
                self.trace.roots.insert(m, (start_ns, None));
            }
        }
        for a in &actions {
            match a {
                Action::Send { .. } => self.trace.sends += 1,
                Action::Deliver(d) if self.inner.id() == CLIENT => {
                    if let Some(root) = self.trace.roots.get_mut(&d.msg.id) {
                        root.1 = Some(end_ns);
                    }
                }
                _ => {}
            }
        }
        self.trace.spans.push(EventSpan {
            node: self.inner.id().0,
            kind,
            start_ns,
            dur_ns: end_ns - start_ns,
            msgs,
        });
        actions
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// Mirror of the TCP transport's private frame type, so the codec is timed
/// on the exact bytes the deployed cluster puts on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WireFrame<M> {
    Hello { from: ProcessId },
    Protocol(M),
}

/// Virtual time the closed-loop replay advances between looks at the
/// completions.
const STEP: Duration = Duration::from_millis(2);
/// Virtual-time cap on a replay: far beyond what any workload needs, and
/// short enough that a wedged replay ends within seconds.
const VIRTUAL_LIMIT: Duration = Duration::from_secs(180);
/// Virtual time a replay keeps running after the last completion.
const DRAIN: Duration = Duration::from_secs(1);

/// One replay of a workload on the deterministic runtime.
pub struct Replay {
    pub ops: u64,
    pub completed: u64,
    /// Wall time spent inside `DeterministicRuntime::run`.
    pub run_wall: Duration,
    pub digest: u64,
    pub verdict: Verdict,
    pub traces: Vec<NodeTrace>,
    pub sent: Vec<WhiteBoxMsg>,
}

/// Replays `w`'s first `w.replay_ops` measured ops under scheduler seed
/// `seed`, wrapping every node in [`Traced`] when `traced`.
pub fn replay(w: &Workload, seed: u64, traced: bool) -> Replay {
    let mut spec = DeploySpec::loopback(Protocol::WhiteBox, workload::NUM_GROUPS, GROUP_SIZE, 1, 0);
    configure(&mut spec, w);
    let epoch = Instant::now();
    let wrap = |n: BoxedNode<WhiteBoxMsg>| -> BoxedNode<WhiteBoxMsg> {
        if traced {
            Box::new(Traced {
                inner: n,
                epoch,
                trace: NodeTrace::default(),
            })
        } else {
            n
        }
    };
    let mut nodes: Vec<BoxedNode<WhiteBoxMsg>> = (0..REPLICAS as u32)
        .map(|i| {
            wrap(Box::new(
                spec.whitebox_replica(ProcessId(i))
                    .expect("replica ids are valid for the spec"),
            ))
        })
        .collect();
    nodes.push(wrap(Box::new(
        spec.whitebox_client(CLIENT)
            .expect("the client id is valid for the spec"),
    )));
    let mut rt = DeterministicRuntime::new(nodes, seed);

    let mut submitted: BTreeMap<MsgId, Submitted> = BTreeMap::new();
    let message = |i: u64, submitted: &mut BTreeMap<MsgId, Submitted>| -> AppMessage {
        let op = workload::op(seed, w, i, false);
        let id = MsgId::new(CLIENT, i);
        let dest = Destination::new(op.dest.iter().copied()).expect("ops name at least one group");
        submitted.insert(
            id,
            Submitted {
                dest: op.dest,
                completed_gts: None,
            },
        );
        AppMessage::new(id, dest, Payload::from(op.payload))
    };
    let ops = w.replay_ops;
    let mut next = 0u64;
    match w.pacing {
        Pacing::Closed { outstanding } => {
            while next < (outstanding as u64).min(ops) {
                let m = message(next, &mut submitted);
                rt.schedule_submit(Duration::from_nanos(1), CLIENT, m);
                next += 1;
            }
        }
        Pacing::Open { .. } => {
            let period = w.open_period().expect("open pacing has a period");
            let mut script = RuntimeScript::new();
            for i in 0..ops {
                let m = message(i, &mut submitted);
                script.submit(period.mul_f64((i + 1) as f64), CLIENT, m);
            }
            if let Some(f) = w.kill_at {
                script.events.push(ScriptEvent::Crash {
                    at: period.mul_f64(ops as f64 * f),
                    node: ProcessId(0),
                });
            }
            rt.load_script(script);
            next = ops;
        }
    }

    let mut logs: BTreeMap<u32, Vec<(MsgId, Gts)>> =
        (0..REPLICAS as u32).map(|i| (i, Vec::new())).collect();
    let mut completed = 0u64;
    let mut run_wall = Duration::ZERO;
    // The runtime returns early when nothing is due before the horizon, so
    // the horizon advances by a step per call whether or not time did. Once
    // every multicast completed, the run continues for `DRAIN` so followers
    // deliver what the client already saw complete.
    let mut horizon = Duration::ZERO;
    let mut drain_until = None;
    while horizon < drain_until.unwrap_or(VIRTUAL_LIMIT) {
        if completed == ops && drain_until.is_none() {
            drain_until = Some(rt.now() + DRAIN);
        }
        horizon = horizon.max(rt.now()) + STEP;
        let t0 = Instant::now();
        rt.run(horizon);
        run_wall += t0.elapsed();
        for d in rt.delivery_log().drain() {
            let gts = gts_of(d.delivery.global_ts);
            let id = d.delivery.msg.id;
            if d.process == CLIENT {
                if let Some(s) = submitted.get_mut(&id) {
                    if s.completed_gts.is_none() {
                        s.completed_gts = Some(gts);
                        completed += 1;
                        if next < ops {
                            let m = message(next, &mut submitted);
                            rt.schedule_submit(rt.now() + Duration::from_nanos(1), CLIENT, m);
                            next += 1;
                        }
                    }
                }
            } else {
                logs.entry(d.process.0).or_default().push((id, gts));
            }
        }
    }
    let crashed: BTreeSet<u32> = w.kill_at.map(|_| 0).into_iter().collect();
    let verdict = judge(&submitted, &logs, group_of, &crashed);
    let digest = rt.trace_digest();
    let sent = if traced {
        rt.sent_messages().into_iter().map(|s| s.msg).collect()
    } else {
        Vec::new()
    };
    let mut traces = Vec::new();
    if traced {
        for i in 0..=REPLICAS as u32 {
            let node = rt.node(ProcessId(i)).expect("every node was built");
            let t = node
                .as_any()
                .and_then(|a| a.downcast_ref::<Traced>())
                .expect("traced replays wrap every node");
            traces.push(NodeTrace {
                sends: t.trace.sends,
                allocs: t.trace.allocs,
                spans: t.trace.spans.clone(),
                roots: t.trace.roots.clone(),
            });
        }
    }
    Replay {
        ops,
        completed,
        run_wall,
        digest,
        verdict,
        traces,
        sent,
    }
}

/// Codec cost over recorded traffic.
#[derive(Debug, Default)]
pub struct CodecCost {
    pub frames: u64,
    pub bytes: u64,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub allocs_per_frame: f64,
    pub mismatches: u64,
}

/// Encodes and decodes every recorded protocol message once, as the TCP
/// transport frames it (binary codec), timing in chunks so the decoded
/// messages can be checked and dropped outside the timed loops.
pub fn codec_cost(sent: &[WhiteBoxMsg]) -> CodecCost {
    const CHUNK: usize = 1024;
    let frames: Vec<WireFrame<WhiteBoxMsg>> =
        sent.iter().cloned().map(WireFrame::Protocol).collect();
    let mut cost = CodecCost {
        frames: frames.len() as u64,
        ..CodecCost::default()
    };
    let (mut enc, mut dec, mut allocs_made) = (Duration::ZERO, Duration::ZERO, 0u64);
    for chunk in frames.chunks(CHUNK) {
        let mut encoded = Vec::with_capacity(chunk.len());
        let mut decoded = Vec::with_capacity(chunk.len());
        let a0 = allocs();
        let t0 = Instant::now();
        for f in chunk {
            encoded.push(
                encode_frame_with(WireCodec::Binary, std::hint::black_box(f))
                    .expect("recorded messages encode"),
            );
        }
        let t1 = Instant::now();
        for e in &encoded {
            decoded.push(decode_frame_slice::<WireFrame<WhiteBoxMsg>>(
                WireCodec::Binary,
                std::hint::black_box(e),
            ));
        }
        let t2 = Instant::now();
        allocs_made += allocs() - a0;
        enc += t1 - t0;
        dec += t2 - t1;
        cost.bytes += encoded.iter().map(|e| e.len() as u64).sum::<u64>();
        for (f, d) in chunk.iter().zip(&decoded) {
            if !matches!(d, Ok(Some((m, _))) if m == f) {
                cost.mismatches += 1;
            }
        }
    }
    let n = frames.len().max(1) as f64;
    cost.encode_ns_per_frame = enc.as_nanos() as f64 / n;
    cost.decode_ns_per_frame = dec.as_nanos() as f64 / n;
    cost.allocs_per_frame = allocs_made as f64 / n;
    cost
}

/// Writes every span as one JSON line: multicast roots, then event spans
/// naming the multicasts they carry (their parents).
pub fn write_spans(path: &Path, traces: &[NodeTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let id = |m: &MsgId| format!("\"{}.{}\"", m.sender.0, m.seq);
    for t in traces {
        let mut roots: Vec<_> = t.roots.iter().collect();
        roots.sort_by_key(|(m, _)| **m);
        for (m, (start, end)) in roots {
            writeln!(
                out,
                "{{\"span\":\"multicast\",\"msg\":{},\"start_ns\":{start},\"end_ns\":{}}}",
                id(m),
                end.map_or("null".to_string(), |e| e.to_string())
            )?;
        }
    }
    for t in traces {
        for s in &t.spans {
            let parents: Vec<String> = s.msgs.iter().map(id).collect();
            writeln!(
                out,
                "{{\"span\":\"on_event\",\"node\":{},\"kind\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"parents\":[{}]}}",
                s.node,
                s.kind,
                s.start_ns,
                s.dur_ns,
                parents.join(",")
            )?;
        }
    }
    out.flush()
}
