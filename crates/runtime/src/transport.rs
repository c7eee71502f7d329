//! The transport abstraction separating protocol execution from message
//! carriage.
//!
//! The (crate-internal) node event loop executes
//! [`Action::Send`](wbam_types::Action::Send) by handing the message to a
//! [`Transport`]; everything else about running a node (timers, deliveries,
//! control events) is transport-independent. Two transports exist:
//!
//! * [`TcpTransport`](crate::tcp::TcpTransport) — real TCP sockets with
//!   `wbam_types::wire` framing, driven by a single nonblocking
//!   wake-on-ready poller thread (every socket plus a self-pipe wake fd
//!   multiplexed through `poll(2)`; a `send_many` burst wakes the poller
//!   with one byte down the pipe), used by the per-process
//!   [`TcpNode`](crate::tcp::TcpNode) runtime and the `wbamd` deployment
//!   binary; and
//! * the [`DeterministicRuntime`](crate::DeterministicRuntime)'s in-memory
//!   transport, which records every send and queues it into the seeded
//!   scheduler's mailboxes.

use wbam_types::ProcessId;

/// Carries protocol messages from the local node to its peers.
///
/// Sends are best-effort, matching the fair-lossy link model the protocols
/// are designed for: a message to an unknown, crashed or unreachable peer is
/// dropped (or queued for a reconnecting peer) and the protocols' retry
/// timers recover. A transport must preserve per-sender FIFO order for the
/// messages it does deliver.
pub trait Transport<M>: Send + 'static {
    /// Sends `msg` to process `to`. Never blocks on the peer.
    fn send(&self, to: ProcessId, msg: M);

    /// Sends a batch of messages, preserving per-destination order.
    ///
    /// The node event loop hands over all sends of one protocol step through
    /// this, so a transport with per-handoff cost (the TCP poller's command
    /// channel) pays it once per event instead of once per message. The
    /// default just loops over [`send`](Self::send).
    fn send_many(&self, msgs: Vec<(ProcessId, M)>) {
        for (to, msg) in msgs {
            self.send(to, msg);
        }
    }
}
