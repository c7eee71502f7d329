//! Length-prefixed wire framing for protocol messages.
//!
//! The sans-IO protocols exchange strongly typed messages; when they are run
//! over a byte-oriented transport (the loopback TCP transport of
//! `wbam-runtime`), messages are framed as `u32 big-endian length || body`,
//! where the body is the compact `serde_binary` encoding of the message:
//! varint integers, interned map keys, packed byte payloads. `WIRE.md` at the
//! repo root specifies it byte for byte.
//!
//! Connections additionally start with the fixed 4-byte [`PREAMBLE`]
//! (`"WB" || version || codec byte`) so that a mixed-version cluster, or a
//! peer still speaking the retired JSON frame bodies, fails fast with a clear
//! error instead of surfacing as garbled frame decodes. See
//! [`check_preamble`].

use bytes::{BufMut, Bytes, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::WbamError;

/// Maximum accepted frame body length (16 MiB); guards against corrupt length
/// prefixes when reading from a byte stream.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The two magic bytes opening every connection preamble.
pub const WIRE_MAGIC: [u8; 2] = *b"WB";

/// The wire protocol version negotiated in the connection preamble.
pub const WIRE_VERSION: u8 = 1;

/// Length of the connection preamble in bytes.
pub const PREAMBLE_LEN: usize = 4;

/// Codec byte of the binary frame bodies, the only ones this build speaks.
const BINARY_CODEC_BYTE: u8 = 2;

/// Codec byte of the retired JSON frame bodies; rejected at connect.
const RETIRED_JSON_CODEC_BYTE: u8 = 1;

/// The 4-byte preamble a connecting peer sends before its first frame:
/// `WIRE_MAGIC || WIRE_VERSION || codec byte` (`57 42 01 02`).
pub const PREAMBLE: [u8; PREAMBLE_LEN] = [
    WIRE_MAGIC[0],
    WIRE_MAGIC[1],
    WIRE_VERSION,
    BINARY_CODEC_BYTE,
];

/// The serialisation format of frame bodies. Binary is the only one; the
/// type remains so that callers name the format they encode with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireCodec {
    /// Compact binary bodies (`serde_binary`).
    #[default]
    Binary,
}

/// Validates a received connection preamble against [`PREAMBLE`].
///
/// # Errors
///
/// Returns [`WbamError::Codec`] with a message naming the exact mismatch —
/// wrong magic (not a WBAM peer), unsupported version, the retired JSON
/// codec byte, or an unknown codec byte.
pub fn check_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Result<(), WbamError> {
    if bytes[..2] != WIRE_MAGIC {
        return Err(WbamError::Codec(format!(
            "connection preamble has bad magic {:02x}{:02x} (expected \"WB\"): not a WBAM peer",
            bytes[0], bytes[1]
        )));
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WbamError::Codec(format!(
            "peer speaks wire version {} but this process speaks {WIRE_VERSION}",
            bytes[2]
        )));
    }
    match bytes[3] {
        BINARY_CODEC_BYTE => Ok(()),
        RETIRED_JSON_CODEC_BYTE => Err(WbamError::Codec(
            "peer uses the retired JSON wire codec (codec byte 1); \
             this process speaks only binary frames (codec byte 2)"
                .to_string(),
        )),
        byte => Err(WbamError::Codec(format!(
            "peer sent unknown wire codec byte {byte}"
        ))),
    }
}

/// Encodes a message as a length-prefixed binary frame.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] if serialisation fails (which only happens for
/// types whose `Serialize` implementation can fail) or if the serialised body
/// exceeds [`MAX_FRAME_LEN`]. The length check matters: `body.len() as u32`
/// would otherwise silently truncate a body longer than `u32::MAX`, emitting a
/// corrupt length prefix the peer cannot resync from, and any frame longer
/// than [`MAX_FRAME_LEN`] would be rejected by the receiving decode anyway.
pub fn encode_frame_with<M: Serialize>(codec: WireCodec, msg: &M) -> Result<Bytes, WbamError> {
    let WireCodec::Binary = codec;
    let body = serde_binary::to_vec(msg).map_err(|e| WbamError::Codec(e.to_string()))?;
    if body.len() > MAX_FRAME_LEN {
        return Err(WbamError::Codec(format!(
            "frame body of {} bytes exceeds maximum {MAX_FRAME_LEN}",
            body.len()
        )));
    }
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(body.len() as u32);
    buf.put_slice(&body);
    Ok(buf.freeze())
}

/// Attempts to decode one binary frame from the front of the byte slice
/// `input`.
///
/// Returns the decoded message and the number of bytes consumed, or
/// `Ok(None)` when `input` does not yet contain a full frame. It never
/// shifts buffer contents, so a reader can decode a whole burst of frames
/// with a cursor and compact its buffer once.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] when the length prefix exceeds
/// [`MAX_FRAME_LEN`] or the body fails to deserialise.
pub fn decode_frame_slice<M: DeserializeOwned>(
    codec: WireCodec,
    input: &[u8],
) -> Result<Option<(M, usize)>, WbamError> {
    let WireCodec::Binary = codec;
    if input.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([input[0], input[1], input[2], input[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WbamError::Codec(format!(
            "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        )));
    }
    if input.len() < 4 + len {
        return Ok(None);
    }
    let msg = serde_binary::from_slice(&input[4..4 + len])
        .map_err(|e| WbamError::Codec(e.to_string()))?;
    Ok(Some((msg, 4 + len)))
}

/// Encodes a message directly to a JSON string (used for traces and tooling).
///
/// # Errors
///
/// Returns [`WbamError::Codec`] if serialisation fails.
pub fn to_json<M: Serialize>(msg: &M) -> Result<String, WbamError> {
    serde_json::to_string(msg).map_err(|e| WbamError::Codec(e.to_string()))
}

/// Decodes a message from a JSON string.
///
/// # Errors
///
/// Returns [`WbamError::Codec`] if deserialisation fails.
pub fn from_json<M: DeserializeOwned>(json: &str) -> Result<M, WbamError> {
    serde_json::from_str(json).map_err(|e| WbamError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Ping {
        seq: u64,
        note: String,
    }

    fn ping(seq: u64, note: &str) -> Ping {
        Ping {
            seq,
            note: note.to_string(),
        }
    }

    fn encode(msg: &Ping) -> Bytes {
        encode_frame_with(WireCodec::Binary, msg).unwrap()
    }

    fn decode(input: &[u8]) -> Result<Option<(Ping, usize)>, WbamError> {
        decode_frame_slice(WireCodec::Binary, input)
    }

    #[test]
    fn frame_round_trip() {
        let msg = ping(7, "hello");
        let frame = encode(&msg);
        assert_eq!(decode(&frame).unwrap(), Some((msg, frame.len())));
    }

    #[test]
    fn partial_frames_request_more_data() {
        let frame = encode(&ping(1, "x"));
        assert_eq!(decode(&frame[..3]).unwrap(), None);
        assert_eq!(decode(&frame[..frame.len() - 1]).unwrap(), None);
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let (a, b) = (ping(1, "a"), ping(2, "b"));
        let mut stream = encode(&a).to_vec();
        stream.extend_from_slice(&encode(&b));
        let (first, used) = decode(&stream).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, rest) = decode(&stream[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(decode(&stream[used + rest..]).unwrap(), None);
    }

    #[test]
    fn slice_decode_reports_consumed_bytes() {
        let (a, b) = (ping(1, "a"), ping(2, "bb"));
        let mut stream = encode(&a).to_vec();
        stream.extend_from_slice(&encode(&b));
        let (first, consumed) = decode(&stream).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, rest) = decode(&stream[consumed..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(consumed + rest, stream.len());
    }

    /// A frame body one byte over the limit is rejected on the encode side
    /// (instead of truncating its length prefix), while a body at exactly the
    /// limit round-trips. Every string length near the limit takes a 4-byte
    /// varint, so each added `x` in `note` grows the body by exactly one byte
    /// and the body length can be dialled in precisely.
    #[test]
    fn encode_rejects_bodies_over_the_frame_limit() {
        let probe = 1 << 22;
        let overhead = serde_binary::to_vec(&ping(7, &"x".repeat(probe)))
            .unwrap()
            .len()
            - probe;

        let over = ping(7, &"x".repeat(MAX_FRAME_LEN - overhead + 1));
        let err = encode_frame_with(WireCodec::Binary, &over).unwrap_err();
        assert!(matches!(err, WbamError::Codec(_)), "got {err:?}");
        assert!(err.to_string().contains("exceeds maximum"));

        let at_limit = ping(7, &"x".repeat(MAX_FRAME_LEN - overhead));
        let frame = encode(&at_limit);
        assert_eq!(frame.len(), 4 + MAX_FRAME_LEN);
        assert_eq!(decode(&frame).unwrap(), Some((at_limit, frame.len())));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_slice(&[0u8; 16]);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(3);
        buf.put_slice(b"not");
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn preamble_round_trip_and_mismatches() {
        assert_eq!(PREAMBLE, [0x57, 0x42, 0x01, 0x02]);
        check_preamble(&PREAMBLE).unwrap();
        // A peer still sending JSON frame bodies is told so by name.
        let err = check_preamble(&[b'W', b'B', 1, 1]).unwrap_err();
        assert!(err.to_string().contains("retired JSON wire codec"), "{err}");
        // Bad magic (e.g. an HTTP client) is called out as a non-WBAM peer.
        let err = check_preamble(b"GET ").unwrap_err();
        assert!(err.to_string().contains("not a WBAM peer"));
        // Future version byte.
        let err = check_preamble(&[b'W', b'B', 9, 2]).unwrap_err();
        assert!(err.to_string().contains("wire version 9"));
        // Unknown codec byte.
        let err = check_preamble(&[b'W', b'B', WIRE_VERSION, 7]).unwrap_err();
        assert!(err.to_string().contains("codec byte 7"));
    }

    #[test]
    fn json_helpers_round_trip() {
        let msg = ping(9, "trace");
        let json = to_json(&msg).unwrap();
        let back: Ping = from_json(&json).unwrap();
        assert_eq!(back, msg);
        assert!(from_json::<Ping>("{").is_err());
    }
}
