//! Wall-vs-virtual equivalence: the same node, fed the same envelope/timer
//! script, produces the same delivery sequence whether the loop runs on a
//! real thread under the wall clock ([`TcpNode`]) or stepped under the
//! virtual clock ([`DeterministicRuntime`]). The clock abstraction must
//! change *when* things happen, never *what* happens.

use std::collections::BTreeMap;
use std::time::Duration;

use wbam_runtime::{DeterministicRuntime, TcpNode};
use wbam_types::{
    Action, AppMessage, DeliveredMessage, Destination, Event, GroupId, MsgId, Node, Payload,
    ProcessId, TimerId,
};

const NODE: ProcessId = ProcessId(0);

fn marker(seq: u64) -> AppMessage {
    AppMessage::new(
        MsgId::new(NODE, seq),
        Destination::single(GroupId(0)),
        Payload::from("timer-marker"),
    )
}

fn submission(seq: u64) -> AppMessage {
    AppMessage::new(
        MsgId::new(NODE, seq),
        Destination::single(GroupId(0)),
        Payload::from("submitted"),
    )
}

/// A deterministic scripted node: Init arms timer 1 (50 ms); timer 1
/// delivers a marker and arms timer 2 (another 50 ms); timer 2 delivers a
/// second marker; every multicast is delivered immediately. With the script
/// events spaced far apart, the delivery *sequence* is unambiguous under
/// both clocks even though wall time jitters.
struct ScriptNode;

impl Node for ScriptNode {
    type Msg = ();

    fn id(&self) -> ProcessId {
        NODE
    }

    fn on_event(&mut self, _now: Duration, event: Event<()>) -> Vec<Action<()>> {
        match event {
            Event::Init => vec![Action::SetTimer {
                id: TimerId(1),
                delay: Duration::from_millis(50),
            }],
            Event::Timer { id: TimerId(1), .. } => vec![
                Action::Deliver(DeliveredMessage {
                    msg: marker(1000),
                    global_ts: None,
                }),
                Action::SetTimer {
                    id: TimerId(2),
                    delay: Duration::from_millis(50),
                },
            ],
            Event::Timer { id: TimerId(2), .. } => vec![Action::Deliver(DeliveredMessage {
                msg: marker(1001),
                global_ts: None,
            })],
            Event::Multicast(msg) => vec![Action::Deliver(DeliveredMessage {
                msg,
                global_ts: None,
            })],
            _ => Vec::new(),
        }
    }
}

/// Expected sequence: timer 1 marker (t=50ms), timer 2 marker (t=100ms),
/// then the two scripted submissions (t=400ms, t=600ms).
fn expected() -> Vec<MsgId> {
    vec![
        marker(1000).id,
        marker(1001).id,
        submission(0).id,
        submission(1).id,
    ]
}

#[test]
fn wall_and_virtual_runs_deliver_the_same_sequence() {
    // Wall-clock run: a real thread, real sleeps. The sleeps are far from
    // every timer deadline, so scheduling jitter cannot reorder anything.
    // `ScriptNode` never sends, so its TCP endpoint can bind any free port.
    let addrs = BTreeMap::from([(NODE, "127.0.0.1:0".parse().unwrap())]);
    let wall = TcpNode::spawn(Box::new(ScriptNode), &addrs, false).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    wall.submit(submission(0)).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    wall.submit(submission(1)).unwrap();
    assert!(wall.wait_for_total(4, Duration::from_secs(10)).unwrap());
    let wall_deliveries = wall.deliveries().unwrap();
    wall.shutdown();
    let wall_seq: Vec<MsgId> = wall_deliveries.iter().map(|d| d.delivery.msg.id).collect();

    // Virtual-clock run: the same node and the same script, stepped by the
    // deterministic scheduler (any seed — a single node leaves the scheduler
    // no delivery choices, which is exactly the point of the comparison).
    let mut virt = DeterministicRuntime::new(vec![Box::new(ScriptNode)], 0xE0_1DE5);
    virt.schedule_submit(Duration::from_millis(400), NODE, submission(0));
    virt.schedule_submit(Duration::from_millis(600), NODE, submission(1));
    virt.run(Duration::from_secs(2));
    let virt_deliveries = virt.deliveries();
    let virt_seq: Vec<MsgId> = virt_deliveries.iter().map(|d| d.delivery.msg.id).collect();

    assert_eq!(wall_seq, expected(), "wall-clock run out of order");
    assert_eq!(virt_seq, expected(), "virtual-clock run out of order");
    assert_eq!(wall_seq, virt_seq);

    // The virtual run's timestamps are exact: timers fired at their armed
    // deadlines, submissions at their scripted times — nothing read a wall
    // clock anywhere in the loop.
    assert_eq!(virt_deliveries[0].elapsed, Duration::from_millis(50));
    assert_eq!(virt_deliveries[1].elapsed, Duration::from_millis(100));
    assert!(virt_deliveries[2].elapsed >= Duration::from_millis(400));
    assert!(virt_deliveries[3].elapsed >= Duration::from_millis(600));
}
