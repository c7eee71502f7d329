//! A real (non-simulated) runtime for WBAM protocol nodes.
//!
//! The deterministic simulator in `wbam-simnet` is ideal for experiments and
//! tests, but deploying atomic multicast means running the protocols on real
//! threads and real sockets. This crate runs every sans-IO
//! [`Node`](wbam_types::Node) through one shared, transport-independent node
//! event loop (crate-internal `node_loop`): timers are served from the node's
//! own timer heap, application deliveries land in a shared [`DeliveryLog`],
//! and sends go through a [`Transport`]. Two shapes sit on that loop:
//!
//! * [`TcpNode`] — one node per OS process on its own thread, the transport
//!   is real TCP with `wbam_types::wire` framing (compact binary bodies),
//!   driven by a single nonblocking `poll(2)` poller thread with coalesced
//!   writes and reconnect-with-backoff ([`tcp::TcpTransport`]). This is what the `wbamd` deployment binary (in
//!   `wbam-harness`) runs; see `crates/harness` for the cluster topology
//!   spec. Deployment is Unix-only.
//! * [`DeterministicRuntime`] — the same node loop over an in-memory
//!   transport, driven single-threaded by a seeded scheduler over a
//!   [`VirtualClock`]: every interleaving of mailbox delivery, timer firing
//!   and crash/restart is chosen by a seed and byte-for-byte replayable.
//!   This is the runtime analogue of the `wbam-simnet` schedule explorer,
//!   exercising the *deployed* code path (burst coalescing, timer
//!   generations, `DeliveryLog`) instead of the simulator's.
//!
//! Both consume time exclusively through the [`Clock`] trait — [`WallClock`]
//! (zero-cost `Instant`/`recv_timeout` wrappers) under TCP, [`VirtualClock`]
//! under the deterministic scheduler.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxReplica};
//! use wbam_runtime::{BoxedNode, DeterministicRuntime};
//! use wbam_types::{AppMessage, ClusterConfig, Destination, GroupId, MsgId, Payload};
//!
//! let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
//! let mut nodes: Vec<BoxedNode<wbam_core::WhiteBoxMsg>> = Vec::new();
//! for gc in cluster.groups() {
//!     for member in gc.members() {
//!         let cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone()).without_auto_election();
//!         nodes.push(Box::new(WhiteBoxReplica::new(cfg)));
//!     }
//! }
//! let client = cluster.clients()[0];
//! nodes.push(Box::new(MulticastClient::new(ClientConfig::new(client, cluster.clone()))));
//!
//! let mut runtime = DeterministicRuntime::new(nodes, 42);
//! let msg = AppMessage::new(
//!     MsgId::new(client, 0),
//!     Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
//!     Payload::from("hello"),
//! );
//! runtime.schedule_submit(Duration::ZERO, client, msg);
//! runtime.run(Duration::from_secs(1));
//! // Every replica of both groups delivers, and the client completes.
//! assert_eq!(runtime.deliveries().len(), 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
mod deterministic;
mod node_loop;
pub mod tcp;
pub mod transport;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use wbam_types::{DeliveredMessage, ProcessId};

pub use clock::{Clock, VirtualClock, WaitError, WallClock};
pub use deterministic::{DeterministicRuntime, RuntimeScript, ScriptEvent, SentRecord, TraceEvent};
pub use tcp::TcpNode;
pub use transport::Transport;

/// A delivery observed by the runtime, tagged with the delivering process and
/// the time since the runtime started (wall or virtual, per its clock).
#[derive(Debug, Clone)]
pub struct RuntimeDelivery {
    /// The process that delivered the message.
    pub process: ProcessId,
    /// The delivery record (message + global timestamp).
    pub delivery: DeliveredMessage,
    /// Time since the runtime started.
    pub elapsed: Duration,
}

/// The shared application-delivery log of a runtime: a buffer of
/// [`RuntimeDelivery`] records plus a cumulative counter, with condvar-based
/// waiting instead of polling.
///
/// Node threads [`push`](Self::push) into it; the embedding application reads
/// a [`snapshot`](Self::snapshot) or [`drain`](Self::drain)s the buffer (so a
/// long-running node does not grow the log without bound). Waiters block
/// on a condition variable signalled by every push — no busy-polling, no
/// per-iteration clone of the log.
///
/// The log never panics on a poisoned mutex: a node thread that panics while
/// holding the lock (every mutation is append-only, so the state stays
/// consistent) must not cascade the panic into every other thread — node or
/// embedder — that later touches the log. Instead the poisoning is recorded
/// and exposed through [`is_poisoned`](Self::is_poisoned); the TCP runtime's
/// control-path accessors ([`TcpNode::deliveries`] and friends) turn it into
/// a typed [`WbamError::NotReady`](wbam_types::WbamError::NotReady) for the
/// embedder.
#[derive(Default)]
pub struct DeliveryLog {
    state: Mutex<LogState>,
    newly_delivered: Condvar,
    poisoned: AtomicBool,
}

#[derive(Default)]
struct LogState {
    buffered: Vec<RuntimeDelivery>,
    total: u64,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// Locks the state, recovering from (and recording) poisoning instead of
    /// propagating the panic to the caller's thread.
    fn state(&self) -> MutexGuard<'_, LogState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poisoned.store(true, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Whether a thread has panicked while holding the log's lock. The data
    /// itself stays consistent (every mutation is append-only), but the
    /// panicking node thread is gone, so counts may never advance again —
    /// control-path APIs use this to report
    /// [`WbamError::NotReady`](wbam_types::WbamError::NotReady) instead of
    /// hanging or panicking.
    pub fn is_poisoned(&self) -> bool {
        // A past poisoning may not have been observed by `state()` yet; check
        // the mutex directly as well so the very first accessor sees it.
        self.poisoned.load(Ordering::Relaxed) || self.state.is_poisoned()
    }

    /// Appends a delivery and wakes all waiters.
    pub fn push(&self, delivery: RuntimeDelivery) {
        let mut state = self.state();
        state.buffered.push(delivery);
        state.total += 1;
        self.newly_delivered.notify_all();
    }

    /// Appends a batch of deliveries under a single lock acquisition, waking
    /// waiters once. The node event loop hands over all deliveries of one
    /// protocol step through this, so the hot path takes the log mutex at
    /// most once per event instead of once per delivery.
    pub fn push_many(&self, deliveries: Vec<RuntimeDelivery>) {
        if deliveries.is_empty() {
            return;
        }
        let mut state = self.state();
        state.total += deliveries.len() as u64;
        state.buffered.extend(deliveries);
        self.newly_delivered.notify_all();
    }

    /// A clone of the deliveries currently buffered (those not yet drained).
    pub fn snapshot(&self) -> Vec<RuntimeDelivery> {
        self.state().buffered.clone()
    }

    /// Removes and returns all buffered deliveries. The cumulative
    /// [`total`](Self::total) is unaffected.
    pub fn drain(&self) -> Vec<RuntimeDelivery> {
        std::mem::take(&mut self.state().buffered)
    }

    /// Total number of deliveries ever pushed, including drained ones.
    pub fn total(&self) -> u64 {
        self.state().total
    }

    /// Blocks until the cumulative delivery count reaches `count` or the
    /// timeout expires; returns whether the count was reached.
    pub fn wait_for_total(&self, count: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state();
        loop {
            if state.total >= count {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (next, timed_out) = match self.newly_delivered.wait_timeout(state, remaining) {
                Ok(woken) => woken,
                Err(poisoned) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    poisoned.into_inner()
                }
            };
            state = next;
            if timed_out.timed_out() && state.total < count {
                return false;
            }
        }
    }
}

/// A sans-IO node as the runtime executes it: boxed, sendable to its thread.
pub type BoxedNode<M> = Box<dyn wbam_types::Node<Msg = M> + Send>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload};

    fn delivery(seq: u64) -> RuntimeDelivery {
        RuntimeDelivery {
            process: ProcessId(0),
            delivery: DeliveredMessage {
                msg: AppMessage::new(
                    MsgId::new(ProcessId(0), seq),
                    Destination::single(GroupId(0)),
                    Payload::from("x"),
                ),
                global_ts: None,
            },
            elapsed: Duration::ZERO,
        }
    }

    /// Regression (runtime bugfix sweep): draining the delivery log keeps the
    /// cumulative count intact, and waiting counts drained deliveries — so a
    /// long-running embedder can drain incrementally without ever growing the
    /// buffer or confusing waiters.
    #[test]
    fn drain_keeps_cumulative_count_and_wait_semantics() {
        let log = DeliveryLog::new();
        assert!(log.snapshot().is_empty());
        log.push_many((0..4).map(delivery).collect());
        assert!(log.wait_for_total(4, Duration::from_secs(10)));
        let drained = log.drain();
        assert_eq!(drained.len(), 4);
        assert!(log.snapshot().is_empty());
        assert_eq!(log.total(), 4);
        // The next wait counts the drained deliveries too.
        log.push(delivery(4));
        assert!(log.wait_for_total(5, Duration::from_secs(10)));
        assert!(!log.wait_for_total(6, Duration::ZERO));
        // Only the new delivery is buffered.
        let buffered = log.snapshot();
        assert_eq!(buffered.len(), 1);
        assert_eq!(buffered[0].delivery.msg.id.seq, 4);
    }

    /// Regression for the poison cascade: a thread that panics while holding
    /// the delivery-log lock must not turn every later accessor into a panic.
    /// The log recovers (its mutations are append-only, so the state is still
    /// consistent) and reports the poisoning through `is_poisoned()` so the
    /// TCP runtime's control-path APIs can surface `WbamError::NotReady`.
    #[test]
    fn poisoned_delivery_log_recovers_instead_of_cascading() {
        let log = Arc::new(DeliveryLog::new());
        assert!(!log.is_poisoned());
        let delivery = |seq: u64| RuntimeDelivery {
            process: ProcessId(0),
            delivery: DeliveredMessage {
                msg: AppMessage::new(
                    MsgId::new(ProcessId(0), seq),
                    Destination::single(GroupId(0)),
                    Payload::from("x"),
                ),
                global_ts: None,
            },
            elapsed: Duration::ZERO,
        };
        log.push(delivery(0));

        // Panic while holding the lock, as a node thread dying mid-push would.
        let poisoner = Arc::clone(&log);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("node thread dies while publishing");
        })
        .join();
        assert!(result.is_err(), "the spawned thread must have panicked");

        // Every accessor keeps working on the recovered, consistent state...
        assert!(log.is_poisoned());
        assert_eq!(log.total(), 1);
        assert_eq!(log.snapshot().len(), 1);
        log.push(delivery(1));
        assert_eq!(log.total(), 2);
        assert!(log.wait_for_total(2, Duration::from_millis(100)));
        assert_eq!(log.drain().len(), 2);
        // ...and the poisoning stays observable for control-path mapping.
        assert!(log.is_poisoned());
    }

    /// The condvar wait respects the timeout when the count is not reached,
    /// and wakes promptly (well under the timeout) once a push from another
    /// thread reaches it.
    #[test]
    fn wait_for_deliveries_times_out_cleanly() {
        let log = Arc::new(DeliveryLog::new());
        let begin = Instant::now();
        assert!(!log.wait_for_total(1, Duration::from_millis(200)));
        let waited = begin.elapsed();
        assert!(
            waited >= Duration::from_millis(150),
            "returned after {waited:?} without any delivery"
        );

        let pusher = Arc::clone(&log);
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            pusher.push(delivery(0));
        });
        let begin = Instant::now();
        assert!(log.wait_for_total(1, Duration::from_secs(10)));
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "woke only after {:?}",
            begin.elapsed()
        );
        thread.join().unwrap();
    }
}
