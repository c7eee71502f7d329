//! Property tests of the wire framing (`wbam_types::wire`) over *every*
//! protocol message type the TCP runtime carries: each `WhiteBoxMsg`,
//! `BaselineMsg` and `PaxosMsg` variant — including `ACCEPT_BATCH`,
//! checkpoint-bearing `NEW_STATE` and `STATE_TRANSFER` — must survive
//! binary framing byte-for-byte, both as a single frame and as concatenated
//! frames fed to the decoder at randomized split points (the way a TCP
//! reader actually sees them). The preamble handshake that keeps peers
//! still speaking the retired JSON codec from ever exchanging frames is
//! regression-tested at the bottom.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::Serialize;
use wbam_baselines::{BaselineMsg, Command};
use wbam_consensus::{PaxosMsg, Slot};
use wbam_core::{AcceptEntry, DeliverEntry, RecordSnapshot, StateSnapshot, WhiteBoxMsg};
use wbam_types::wire::{
    check_preamble, decode_frame_slice, encode_frame_with, WireCodec, PREAMBLE,
};
use wbam_types::{
    AppMessage, Ballot, Checkpoint, DeliveredFilter, Destination, GroupId, MsgId, Payload, Phase,
    ProcessId, Timestamp,
};

// --- random builders -------------------------------------------------------

fn arb_msg_id(rng: &mut StdRng) -> MsgId {
    MsgId::new(ProcessId(rng.gen_range(0..32)), rng.gen_range(0..10_000))
}

fn arb_timestamp(rng: &mut StdRng) -> Timestamp {
    if rng.gen_bool(0.1) {
        Timestamp::BOTTOM
    } else {
        Timestamp::new(rng.gen_range(0..100_000), GroupId(rng.gen_range(0..8)))
    }
}

fn arb_ballot(rng: &mut StdRng) -> Ballot {
    if rng.gen_bool(0.1) {
        Ballot::BOTTOM
    } else {
        Ballot::new(rng.gen_range(0..64), ProcessId(rng.gen_range(0..32)))
    }
}

fn arb_app_message(rng: &mut StdRng) -> AppMessage {
    let num_dest = rng.gen_range(1..=3);
    let mut dest: Vec<GroupId> = Vec::new();
    while dest.len() < num_dest {
        let g = GroupId(rng.gen_range(0..8));
        if !dest.contains(&g) {
            dest.push(g);
        }
    }
    let payload: Vec<u8> = (0..rng.gen_range(0..64))
        .map(|_| rng.gen_range(0..=255) as u8)
        .collect();
    AppMessage::new(
        arb_msg_id(rng),
        Destination::new(dest).expect("non-empty destination"),
        Payload::from(payload),
    )
}

fn arb_ballot_vector(rng: &mut StdRng) -> BTreeMap<GroupId, Ballot> {
    (0..rng.gen_range(1..4))
        .map(|_| (GroupId(rng.gen_range(0..8)), arb_ballot(rng)))
        .collect()
}

fn arb_watermarks(rng: &mut StdRng) -> BTreeMap<GroupId, Timestamp> {
    (0..rng.gen_range(0..4))
        .map(|_| (GroupId(rng.gen_range(0..8)), arb_timestamp(rng)))
        .collect()
}

fn arb_phase(rng: &mut StdRng) -> Phase {
    match rng.gen_range(0..4) {
        0 => Phase::Start,
        1 => Phase::Proposed,
        2 => Phase::Accepted,
        _ => Phase::Committed,
    }
}

fn arb_snapshot(rng: &mut StdRng) -> StateSnapshot {
    let mut snapshot = StateSnapshot::new();
    for _ in 0..rng.gen_range(0..4) {
        let msg = arb_app_message(rng);
        snapshot.records.insert(
            msg.id,
            RecordSnapshot {
                msg: msg.clone(),
                phase: arb_phase(rng),
                local_ts: arb_timestamp(rng),
                global_ts: arb_timestamp(rng),
            },
        );
    }
    snapshot
}

fn arb_checkpoint(rng: &mut StdRng) -> Checkpoint {
    let mut dedup = DeliveredFilter::new();
    for _ in 0..rng.gen_range(0..16) {
        dedup.insert(arb_msg_id(rng));
    }
    Checkpoint {
        group: GroupId(rng.gen_range(0..8)),
        ballot: arb_ballot(rng),
        clock: rng.gen_range(0..100_000),
        watermarks: arb_watermarks(rng),
        max_delivered_gts: arb_timestamp(rng),
        delivered_count: rng.gen_range(0..100_000),
        dedup,
        app_state: (0..rng.gen_range(0..32))
            .map(|_| rng.gen_range(0..=255) as u8)
            .collect(),
    }
}

fn arb_command(rng: &mut StdRng) -> Command {
    if rng.gen_bool(0.5) {
        Command::AssignLocal {
            msg: arb_app_message(rng),
            local_ts: arb_timestamp(rng),
        }
    } else {
        Command::CommitGlobal {
            msg_id: arb_msg_id(rng),
            global_ts: arb_timestamp(rng),
        }
    }
}

/// One random instance of the white-box wire variant with index `variant`
/// (0..16 covers the whole enum).
fn arb_whitebox(rng: &mut StdRng, variant: usize) -> WhiteBoxMsg {
    match variant {
        0 => WhiteBoxMsg::Multicast {
            msg: arb_app_message(rng),
        },
        1 => WhiteBoxMsg::Accept {
            msg: arb_app_message(rng),
            group: GroupId(rng.gen_range(0..8)),
            ballot: arb_ballot(rng),
            local_ts: arb_timestamp(rng),
        },
        2 => WhiteBoxMsg::AcceptAck {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
            ballots: arb_ballot_vector(rng),
        },
        3 => WhiteBoxMsg::AcceptBatch {
            group: GroupId(rng.gen_range(0..8)),
            ballot: arb_ballot(rng),
            entries: (0..rng.gen_range(1..5))
                .map(|_| AcceptEntry {
                    msg: arb_app_message(rng),
                    local_ts: arb_timestamp(rng),
                })
                .collect(),
        },
        4 => WhiteBoxMsg::AcceptAckBatch {
            group: GroupId(rng.gen_range(0..8)),
            entries: (0..rng.gen_range(1..5))
                .map(|_| (arb_msg_id(rng), arb_ballot_vector(rng)))
                .collect(),
        },
        5 => WhiteBoxMsg::Deliver {
            msg: arb_app_message(rng),
            ballot: arb_ballot(rng),
            local_ts: arb_timestamp(rng),
            global_ts: arb_timestamp(rng),
        },
        6 => WhiteBoxMsg::DeliverBatch {
            ballot: arb_ballot(rng),
            entries: (0..rng.gen_range(1..5))
                .map(|_| DeliverEntry {
                    msg: arb_app_message(rng),
                    local_ts: arb_timestamp(rng),
                    global_ts: arb_timestamp(rng),
                })
                .collect(),
        },
        7 => WhiteBoxMsg::NewLeader {
            ballot: arb_ballot(rng),
        },
        8 => WhiteBoxMsg::NewLeaderAck {
            ballot: arb_ballot(rng),
            cballot: arb_ballot(rng),
            checkpoint: arb_checkpoint(rng),
            snapshot: arb_snapshot(rng),
        },
        9 => WhiteBoxMsg::NewState {
            ballot: arb_ballot(rng),
            checkpoint: arb_checkpoint(rng),
            snapshot: arb_snapshot(rng),
        },
        10 => WhiteBoxMsg::NewStateAck {
            ballot: arb_ballot(rng),
        },
        11 => WhiteBoxMsg::Heartbeat {
            ballot: arb_ballot(rng),
        },
        12 => WhiteBoxMsg::StableReport {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
        },
        13 => WhiteBoxMsg::StableAdvance {
            watermarks: arb_watermarks(rng),
        },
        14 => WhiteBoxMsg::StablePruned {
            msg_id: arb_msg_id(rng),
            watermarks: arb_watermarks(rng),
        },
        _ => WhiteBoxMsg::ClientReply {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
            global_ts: arb_timestamp(rng),
        },
    }
}

const WHITEBOX_VARIANTS: usize = 16;

/// One random instance of the Paxos wire variant with index `variant`
/// (0..8 covers the whole enum).
fn arb_paxos(rng: &mut StdRng, variant: usize) -> PaxosMsg<Command> {
    match variant {
        0 => PaxosMsg::Prepare {
            ballot: arb_ballot(rng),
        },
        1 => PaxosMsg::Promise {
            ballot: arb_ballot(rng),
            accepted: (0..rng.gen_range(0..4))
                .map(|_| {
                    (
                        rng.gen_range(0..1000) as Slot,
                        (arb_ballot(rng), arb_command(rng)),
                    )
                })
                .collect(),
        },
        2 => PaxosMsg::Accept {
            ballot: arb_ballot(rng),
            slot: rng.gen_range(0..1000),
            cmd: arb_command(rng),
        },
        3 => PaxosMsg::Accepted {
            ballot: arb_ballot(rng),
            slot: rng.gen_range(0..1000),
        },
        4 => PaxosMsg::Chosen {
            slot: rng.gen_range(0..1000),
            cmd: arb_command(rng),
        },
        5 => PaxosMsg::AcceptMany {
            ballot: arb_ballot(rng),
            start_slot: rng.gen_range(0..1000),
            cmds: (0..rng.gen_range(1..5)).map(|_| arb_command(rng)).collect(),
        },
        6 => PaxosMsg::AcceptedMany {
            ballot: arb_ballot(rng),
            start_slot: rng.gen_range(0..1000),
            count: rng.gen_range(1..16),
        },
        _ => PaxosMsg::ChosenMany {
            entries: (0..rng.gen_range(1..5))
                .map(|_| (rng.gen_range(0..1000) as Slot, arb_command(rng)))
                .collect(),
        },
    }
}

const PAXOS_VARIANTS: usize = 8;

/// One random instance of the baseline wire variant with index `variant`
/// (0..10 covers the whole enum; the `Paxos` variant nests a random
/// `PaxosMsg` variant).
fn arb_baseline(rng: &mut StdRng, variant: usize) -> BaselineMsg {
    match variant {
        0 => BaselineMsg::Multicast {
            msg: arb_app_message(rng),
        },
        1 => BaselineMsg::Propose {
            msg: arb_app_message(rng),
            group: GroupId(rng.gen_range(0..8)),
            local_ts: arb_timestamp(rng),
        },
        2 => BaselineMsg::Confirm {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
        },
        3 => BaselineMsg::Deliver {
            msg_id: arb_msg_id(rng),
            global_ts: arb_timestamp(rng),
        },
        4 => {
            let inner = rng.gen_range(0..PAXOS_VARIANTS);
            BaselineMsg::Paxos(arb_paxos(rng, inner))
        }
        5 => BaselineMsg::StableReport {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
        },
        6 => BaselineMsg::StableAdvance {
            watermarks: arb_watermarks(rng),
        },
        7 => BaselineMsg::CatchupRequest {
            group: GroupId(rng.gen_range(0..8)),
            delivered_gts: arb_timestamp(rng),
            next_slot: rng.gen_range(0..1000),
        },
        8 => BaselineMsg::StateTransfer {
            checkpoint: arb_checkpoint(rng),
            frontier: rng.gen_range(0..1000),
            log: (0..rng.gen_range(0..5))
                .map(|_| (rng.gen_range(0..1000) as Slot, arb_command(rng)))
                .collect(),
        },
        _ => BaselineMsg::ClientReply {
            msg_id: arb_msg_id(rng),
            group: GroupId(rng.gen_range(0..8)),
            global_ts: arb_timestamp(rng),
        },
    }
}

const BASELINE_VARIANTS: usize = 10;

// --- helpers ---------------------------------------------------------------

fn round_trip_one<M>(msg: &M)
where
    M: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let frame = encode_frame_with(WireCodec::Binary, msg).expect("encode");
    let (back, used): (M, usize) = decode_frame_slice(WireCodec::Binary, &frame)
        .unwrap_or_else(|e| panic!("decode: {e}"))
        .expect("full frame");
    assert_eq!(&back, msg);
    assert_eq!(used, frame.len(), "decoder left bytes behind");
}

/// Concatenates the frames of `msgs` into one byte stream, feeds the stream
/// to the decoder in chunks whose sizes are drawn from `rng` (1 byte up to
/// past-the-end), and asserts the decoded sequence equals the input. This is
/// exactly the shape of data a TCP reader sees: frames split and coalesced
/// arbitrarily by the stream.
fn round_trip_stream<M>(msgs: &[M], rng: &mut StdRng)
where
    M: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let mut stream = Vec::new();
    for m in msgs {
        stream.extend_from_slice(&encode_frame_with(WireCodec::Binary, m).expect("encode"));
    }
    let mut buf = Vec::new();
    let mut decoded: Vec<M> = Vec::new();
    let mut offset = 0;
    while offset < stream.len() {
        let chunk = rng.gen_range(1..=64.min(stream.len() - offset).max(1));
        let chunk = chunk.min(stream.len() - offset);
        buf.extend_from_slice(&stream[offset..offset + chunk]);
        offset += chunk;
        // Decode every complete frame with a cursor, then compact once —
        // the read path of the TCP poller.
        let mut pos = 0;
        while let Some((msg, used)) = decode_frame_slice::<M>(WireCodec::Binary, &buf[pos..])
            .unwrap_or_else(|e| panic!("decode: {e}"))
        {
            decoded.push(msg);
            pos += used;
        }
        buf.drain(..pos);
    }
    assert_eq!(decoded.len(), msgs.len());
    for (got, want) in decoded.iter().zip(msgs) {
        assert_eq!(got, want);
    }
    assert!(buf.is_empty());
}

// --- properties ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every white-box variant round-trips through a single frame.
    #[test]
    fn whitebox_variants_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..WHITEBOX_VARIANTS {
            round_trip_one(&arb_whitebox(&mut rng, variant));
        }
    }

    /// Every baseline variant (including nested Paxos messages and
    /// STATE_TRANSFER) round-trips through a single frame.
    #[test]
    fn baseline_variants_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..BASELINE_VARIANTS {
            round_trip_one(&arb_baseline(&mut rng, variant));
        }
    }

    /// Every consensus variant round-trips through a single frame.
    #[test]
    fn paxos_variants_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for variant in 0..PAXOS_VARIANTS {
            round_trip_one(&arb_paxos(&mut rng, variant));
        }
    }

    /// A concatenated stream of random white-box frames decodes identically
    /// no matter where the stream is split.
    #[test]
    fn whitebox_streams_survive_random_split_points(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<_> = (0..rng.gen_range(2..12))
            .map(|_| {
                let variant = rng.gen_range(0..WHITEBOX_VARIANTS);
                arb_whitebox(&mut rng, variant)
            })
            .collect();
        round_trip_stream(&msgs, &mut rng);
    }

    /// Same for baseline frames.
    #[test]
    fn baseline_streams_survive_random_split_points(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<_> = (0..rng.gen_range(2..12))
            .map(|_| {
                let variant = rng.gen_range(0..BASELINE_VARIANTS);
                arb_baseline(&mut rng, variant)
            })
            .collect();
        round_trip_stream(&msgs, &mut rng);
    }
}

/// Deterministic sanity check that the generators really cover every variant
/// tag (so a future enum addition fails loudly here instead of silently
/// shrinking coverage).
#[test]
fn generators_cover_every_whitebox_kind() {
    let mut rng = StdRng::seed_from_u64(7);
    let kinds: std::collections::BTreeSet<&'static str> = (0..WHITEBOX_VARIANTS)
        .map(|v| arb_whitebox(&mut rng, v).kind())
        .collect();
    assert_eq!(kinds.len(), WHITEBOX_VARIANTS);
    for expected in [
        "MULTICAST",
        "ACCEPT",
        "ACCEPT_ACK",
        "ACCEPT_BATCH",
        "ACCEPT_ACK_BATCH",
        "DELIVER",
        "DELIVER_BATCH",
        "NEWLEADER",
        "NEWLEADER_ACK",
        "NEW_STATE",
        "NEWSTATE_ACK",
        "HEARTBEAT",
        "STABLE_REPORT",
        "STABLE_ADVANCE",
        "STABLE_PRUNED",
        "CLIENT_REPLY",
    ] {
        assert!(kinds.contains(expected), "generator misses {expected}");
    }
}

/// Regression: a peer still speaking the retired JSON codec must fail the
/// *handshake*, not limp along exchanging frames. Its preamble differs from
/// ours in exactly the codec byte (1 instead of 2), and `check_preamble`
/// names the retired codec in its error. Bad magic, a future wire version
/// and an unknown codec byte are each rejected with their own error.
#[test]
fn json_and_binary_handshakes_reject_each_other() {
    assert_eq!(
        PREAMBLE,
        [0x57, 0x42, 0x01, 0x02],
        "the binary preamble is fixed"
    );
    check_preamble(&PREAMBLE).expect("binary peers agree");

    let json = [b'W', b'B', 1, 1];
    let err = check_preamble(&json).expect_err("the JSON codec is retired");
    let text = err.to_string();
    assert!(
        text.contains("retired JSON wire codec"),
        "error must name the retired codec: {text}"
    );

    for (preamble, expected) in [
        (*b"GET ", "not a WBAM peer"),
        ([b'W', b'B', 9, 2], "wire version 9"),
        ([b'W', b'B', 1, 7], "codec byte 7"),
    ] {
        let err = check_preamble(&preamble).expect_err("bad preamble accepted");
        assert!(err.to_string().contains(expected), "{preamble:?}: {err}");
    }
}
