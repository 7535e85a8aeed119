//! Wire-codec properties: encode→decode identity for every protocol
//! message shape, decode-never-panics under mutation/truncation, and
//! golden byte vectors pinning the exact on-wire encoding (a change to
//! any of these is a wire-format break and must bump `frame::VERSION`).

use bft_ec::Fragment;
use bft_net::{
    encode_frame, encode_frame_into, fnv1a64, Frame, FrameKind, FrameRef, PayloadTooLarge,
    FRAME_OVERHEAD,
};
use bft_rbc::{RbcMessage, RbcMuxMessage};
use bft_types::wire::{Codec, DecodeError, MAX_PAYLOAD};
use bft_types::{NodeId, Round, Step, Value};
use bracha::{StepPayload, StepTag, Wire};
use proptest::prelude::*;

/// Builds a `Wire` value from flat proptest-friendly integers.
fn wire_from(
    sender: usize,
    round: u64,
    step: u8,
    phase: u8,
    payload: u8,
    bit: u8,
    flag: bool,
) -> Wire {
    let step = match step % 3 {
        0 => Step::Initial,
        1 => Step::Echo,
        _ => Step::Ready,
    };
    let value = Value::from_bit(bit % 2);
    let body = match payload % 3 {
        0 => StepPayload::Initial(value),
        1 => StepPayload::Echo(value),
        _ => StepPayload::Ready { value, flagged: flag },
    };
    let msg = match phase % 3 {
        0 => RbcMessage::Send(body),
        1 => RbcMessage::Echo(body),
        _ => RbcMessage::Ready(body),
    };
    Wire { sender: NodeId::new(sender), tag: StepTag::new(Round::new(round.max(1)), step), msg }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every encodable consensus message decodes back to itself.
    #[test]
    fn wire_round_trips(
        sender in 0usize..64,
        round in 1u64..10_000,
        step in 0u8..3,
        phase in 0u8..3,
        payload in 0u8..3,
        bit in 0u8..2,
        flag in proptest::bool::ANY,
    ) {
        let wire = wire_from(sender, round, step, phase, payload, bit, flag);
        let bytes = wire.to_bytes();
        let back = Wire::from_bytes(&bytes);
        prop_assert_eq!(back, Ok(wire));
    }

    /// The same identity holds through a full frame (header + checksum).
    #[test]
    fn framed_wire_round_trips(
        sender in 0usize..64,
        round in 1u64..10_000,
        seq in 1u64..1_000_000,
        phase in 0u8..3,
        bit in 0u8..2,
    ) {
        let wire = wire_from(sender, round, 2, phase, 2, bit, true);
        let framed = encode_frame(FrameKind::Msg, seq, seq ^ 0xAB84, &wire.to_bytes()).unwrap();
        let frame = Frame::decode(&framed);
        prop_assert!(frame.is_ok());
        let frame = frame.unwrap_or_else(|_| Frame::new(FrameKind::Msg, 0, Vec::new()));
        prop_assert_eq!(frame.seq, seq);
        prop_assert_eq!(frame.trace, seq ^ 0xAB84);
        prop_assert_eq!(Wire::from_bytes(&frame.payload), Ok(wire.clone()));

        // The reactor's allocation-free paths are the same codec:
        // encoding into a buffer appends the same bytes, and the
        // borrowed view decodes the same frame.
        let mut buf = vec![0xEE];
        prop_assert!(encode_frame_into(&mut buf, FrameKind::Msg, seq, seq ^ 0xAB84, &wire.to_bytes()).is_ok());
        prop_assert_eq!(&buf[1..], &framed[..]);
        let view = FrameRef::decode_prefix(&framed);
        prop_assert_eq!(view.map(|o| o.map(|(f, used)| (f.to_frame(), used))), Ok(Some((frame, framed.len()))));
    }

    /// Decoding arbitrary garbage must return an error, never panic and
    /// never silently succeed beyond what the checksum makes negligible.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        let _ = Frame::decode(&bytes);
        let _ = Wire::from_bytes(&bytes);
        let view = FrameRef::decode_prefix(&bytes).map(|o| o.map(|(f, used)| (f.to_frame(), used)));
        prop_assert_eq!(view, bft_net::frame::decode_prefix(&bytes));
    }

    /// Single-byte corruption of a valid frame is always *detected*: the
    /// decoder returns a typed error (usually `Checksum`), never a panic
    /// and never the original message.
    #[test]
    fn mutated_frames_are_rejected(
        round in 1u64..1000,
        bit in 0u8..2,
        pos_pick in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let wire = wire_from(1, round, 1, 1, 1, bit, false);
        let mut framed = encode_frame(FrameKind::Msg, 7, 0, &wire.to_bytes()).unwrap();
        let pos = pos_pick % framed.len();
        framed[pos] ^= flip;
        match Frame::decode(&framed) {
            Err(_) => {}
            Ok(frame) => {
                // A corrupted frame that still passes the checksum would
                // need an FNV collision; flag it loudly if it ever shows.
                prop_assert!(
                    frame.payload != wire.to_bytes() || frame.seq != 7,
                    "single-byte corruption went entirely undetected"
                );
            }
        }
    }

    /// Every truncation of a valid frame fails cleanly with a typed
    /// error (prefixes of a frame are never themselves a valid frame).
    #[test]
    fn truncated_frames_are_rejected(round in 1u64..1000, cut in 0usize..4096) {
        let wire = wire_from(2, round, 0, 0, 0, 1, false);
        let framed = encode_frame(FrameKind::Msg, 3, 0, &wire.to_bytes()).unwrap();
        let keep = cut % framed.len(); // strictly shorter than the frame
        prop_assert!(Frame::decode(&framed[..keep]).is_err());
    }
}

proptest! {
    // Fewer cases: each exercises the 1 MiB boundary with real payloads.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Encode/decode limit symmetry: `encode_frame` succeeds exactly when
    /// the payload fits `MAX_PAYLOAD`, and everything it emits decodes —
    /// no frame a sender can produce is rejected for size by a receiver.
    #[test]
    fn encode_decode_limits_are_symmetric(delta in -4i64..=4, seq in 0u64..1_000) {
        let len = (MAX_PAYLOAD as i64 + delta) as usize;
        let payload = vec![0xA5u8; len];
        match encode_frame(FrameKind::Msg, seq, 0, &payload) {
            Ok(framed) => {
                prop_assert!(len <= MAX_PAYLOAD as usize);
                let back = Frame::decode(&framed);
                prop_assert_eq!(back, Ok(Frame::new(FrameKind::Msg, seq, payload)));
            }
            Err(PayloadTooLarge { len: reported }) => {
                prop_assert!(len > MAX_PAYLOAD as usize);
                prop_assert_eq!(reported, len);
            }
        }
    }
}

/// Regression: `encode_frame` used to write `payload.len() as u32`
/// unchecked, emitting frames every receiver rejects as `Oversize` —
/// and, past `u32::MAX`, silently corrupting the length field.
#[test]
fn oversize_payload_is_a_typed_encode_error() {
    let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
    assert_eq!(
        encode_frame(FrameKind::Msg, 1, 0, &payload),
        Err(PayloadTooLarge { len: MAX_PAYLOAD as usize + 1 })
    );
    // The cap itself is still encodable, and decodes back.
    let exact = vec![7u8; MAX_PAYLOAD as usize];
    let framed = encode_frame(FrameKind::Msg, 2, 0, &exact).unwrap();
    assert_eq!(Frame::decode(&framed), Ok(Frame::new(FrameKind::Msg, 2, exact)));
}

/// The golden vector: byte-exact encoding of one representative message.
/// `FRAME_OVERHEAD` bytes of framing around a 17-byte consensus payload.
#[test]
fn golden_wire_encoding() {
    let wire = Wire {
        sender: NodeId::new(3),
        tag: StepTag::new(Round::new(2), Step::Ready),
        msg: RbcMessage::Echo(StepPayload::Ready { value: Value::One, flagged: true }),
    };
    #[rustfmt::skip]
    let expected = vec![
        3, 0, 0, 0,             // sender: NodeId 3, u32 LE
        2, 0, 0, 0, 0, 0, 0, 0, // tag.round: u64 LE
        2,                      // tag.step: Ready
        1,                      // RbcMessage discriminant: Echo
        2,                      // StepPayload discriminant: Ready
        1,                      // value bit: One
        1,                      // flagged: true
    ];
    assert_eq!(wire.to_bytes(), expected);
    assert_eq!(Wire::from_bytes(&expected), Ok(wire));
}

/// The same payload inside a frame, with pinned header and checksum.
#[test]
fn golden_frame_encoding() {
    let wire = Wire {
        sender: NodeId::new(3),
        tag: StepTag::new(Round::new(2), Step::Ready),
        msg: RbcMessage::Echo(StepPayload::Ready { value: Value::One, flagged: true }),
    };
    let framed = encode_frame(FrameKind::Msg, 1, 0, &wire.to_bytes()).unwrap();
    assert_eq!(framed.len(), FRAME_OVERHEAD + 17);
    #[rustfmt::skip]
    let expected_header = [
        0x84, 0xAB,             // magic 0xAB84, LE
        0x02,                   // version 2
        0x04,                   // kind Msg
        1, 0, 0, 0, 0, 0, 0, 0, // seq 1, u64 LE
        25, 0, 0, 0,            // body length (8-byte trace hint + payload), u32 LE
        0, 0, 0, 0, 0, 0, 0, 0, // trace hint 0 (untraced), u64 LE
    ];
    assert_eq!(framed[..24], expected_header);
    let trailer = u64::from_le_bytes(framed[framed.len() - 8..].try_into().unwrap());
    assert_eq!(trailer, 0x43b6_52cb_9b85_d35e, "pinned FNV-1a checksum");
    assert_eq!(trailer, fnv1a64(&framed[..framed.len() - 8]));
}

/// An empty Hello frame is the smallest possible frame; pin it whole.
#[test]
fn golden_empty_hello_frame() {
    let framed = encode_frame(FrameKind::Hello, 0, 0, &[]).unwrap();
    #[rustfmt::skip]
    let expected = vec![
        0x84, 0xAB, 0x02, 0x01,
        0, 0, 0, 0, 0, 0, 0, 0,
        8, 0, 0, 0,             // body = just the 8-byte trace hint
        0, 0, 0, 0, 0, 0, 0, 0, // trace hint 0
        0x75, 0x46, 0xb3, 0x80, 0xcb, 0x57, 0x0e, 0xd6, // FNV-1a of header+body, LE
    ];
    assert_eq!(framed, expected);
    let decoded = Frame::decode(&framed);
    assert_eq!(decoded, Ok(Frame::new(FrameKind::Hello, 0, Vec::new())));
}

/// Golden vector for the erasure-coded broadcast phases, on the batch
/// wire type the ordering layer uses (`RbcMuxMessage<u64, Vec<u8>>`):
/// discriminants 3/4/5 follow Send/Echo/Ready, the root rides first, and
/// fragments carry index, total length, shard bytes, and proof path.
#[test]
fn golden_coded_wire_encoding() {
    let msg: RbcMuxMessage<u64, Vec<u8>> = RbcMuxMessage {
        sender: NodeId::new(1),
        tag: 7,
        msg: RbcMessage::CodedEcho {
            root: 0x1122_3344_5566_7788,
            fragment: Fragment {
                index: 2,
                total_len: 5,
                shard: vec![0xAA, 0xBB].into(),
                proof: vec![0x0102_0304_0506_0708],
            },
        },
    };
    #[rustfmt::skip]
    let expected = vec![
        1, 0, 0, 0,             // sender: NodeId 1, u32 LE
        7, 0, 0, 0, 0, 0, 0, 0, // tag: epoch 7, u64 LE
        4,                      // RbcMessage discriminant: CodedEcho
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // root, u64 LE
        2, 0,                   // fragment.index, u16 LE
        5, 0, 0, 0,             // fragment.total_len, u32 LE
        2, 0, 0, 0,             // shard length, u32 LE
        0xAA, 0xBB,             // shard bytes
        1, 0,                   // proof path length, u16 LE
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // proof[0], u64 LE
    ];
    assert_eq!(msg.to_bytes(), expected);
    assert_eq!(RbcMuxMessage::<u64, Vec<u8>>::from_bytes(&expected), Ok(msg));
}

/// `CodedSend` and `CodedReady` discriminants, pinned.
#[test]
fn golden_coded_send_and_ready_discriminants() {
    let send: RbcMessage<Vec<u8>> = RbcMessage::CodedSend {
        root: 1,
        fragment: Fragment { index: 0, total_len: 1, shard: vec![9].into(), proof: Vec::new() },
    };
    #[rustfmt::skip]
    assert_eq!(send.to_bytes(), vec![
        3,                      // discriminant: CodedSend
        1, 0, 0, 0, 0, 0, 0, 0, // root
        0, 0,                   // index
        1, 0, 0, 0,             // total_len
        1, 0, 0, 0,             // shard length
        9,                      // shard
        0, 0,                   // empty proof
    ]);
    let ready: RbcMessage<Vec<u8>> = RbcMessage::CodedReady { root: 0xFF };
    assert_eq!(ready.to_bytes(), vec![5, 0xFF, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(RbcMessage::<Vec<u8>>::from_bytes(&send.to_bytes()), Ok(send));
    assert_eq!(RbcMessage::<Vec<u8>>::from_bytes(&ready.to_bytes()), Ok(ready));
}

/// A hostile proof-length prefix is rejected before any allocation.
#[test]
fn oversized_fragment_proof_is_rejected() {
    let mut bytes = Vec::new();
    RbcMessage::<Vec<u8>>::CodedReady { root: 0 }.encode(&mut bytes);
    // Rewrite into a CodedSend whose fragment claims 65535 proof hashes.
    let mut evil = vec![3u8];
    evil.extend_from_slice(&bytes[1..]); // root
    evil.extend_from_slice(&[0, 0]); // index
    evil.extend_from_slice(&[1, 0, 0, 0]); // total_len
    evil.extend_from_slice(&[0, 0, 0, 0]); // empty shard
    evil.extend_from_slice(&[0xFF, 0xFF]); // proof length 65535
    assert!(matches!(
        RbcMessage::<Vec<u8>>::from_bytes(&evil),
        Err(DecodeError::Invalid { what: "fragment proof length", .. })
    ));
}

/// The version-1 golden bytes (the pre-trace wire format) must keep
/// decoding: a v2 node accepts frames from a v1 peer, reading a zero
/// (untraced) hint.
#[test]
fn golden_v1_frames_still_decode() {
    #[rustfmt::skip]
    let v1_hello = vec![
        0x84, 0xAB, 0x01, 0x01,
        0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0,
        0x7e, 0xad, 0x9c, 0x35, 0xe8, 0x24, 0x37, 0x30, // FNV-1a of the header, LE
    ];
    let decoded = Frame::decode(&v1_hello);
    assert_eq!(decoded, Ok(Frame::new(FrameKind::Hello, 0, Vec::new())));
    assert_eq!(decoded.map(|f| f.trace), Ok(0));
}

/// Strictness corners the property tests may not hit: rounds are
/// 1-based, value bits are 0/1 only, and trailing bytes are rejected.
#[test]
fn strict_decode_corners() {
    // Round 0 is invalid on the wire (Round::new would panic on it).
    let mut zero_round = Vec::new();
    NodeId::new(0).encode(&mut zero_round);
    zero_round.extend_from_slice(&[0u8; 8]); // round 0
    zero_round.extend_from_slice(&[0, 0, 0, 0]); // step/discr/discr/bit
    assert!(matches!(Wire::from_bytes(&zero_round), Err(DecodeError::Invalid { .. })));

    // A value bit outside {0, 1} is invalid.
    let good = Wire {
        sender: NodeId::new(0),
        tag: StepTag::new(Round::new(1), Step::Initial),
        msg: RbcMessage::Send(StepPayload::Initial(Value::Zero)),
    };
    let mut bytes = good.to_bytes();
    let last = bytes.len() - 1;
    bytes[last] = 2;
    assert!(matches!(Wire::from_bytes(&bytes), Err(DecodeError::Invalid { .. })));

    // Trailing bytes after a complete message are an error.
    let mut padded = good.to_bytes();
    padded.push(0);
    assert!(matches!(Wire::from_bytes(&padded), Err(DecodeError::Trailing { .. })));
}
