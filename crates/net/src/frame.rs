//! Length-prefixed, versioned, checksummed framing.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic     0xAB84 ("Asynchronous Byzantine, 1984")
//! 2       1     version   codec version, currently 2 (1 still decoded)
//! 3       1     kind      1=Hello 2=Challenge 3=Auth 4=Msg 5=Ack
//!                         6=Submit 7=SubmitOk 8=SubmitNack
//! 4       8     seq       per-link sequence number (0 for handshake)
//! 12      4     len       body length in bytes
//! 16      8     trace     causal-trace hint (version ≥ 2 only; 0 = untraced)
//! 24      len-8 payload   kind-specific body
//! 16+len  8     checksum  FNV-1a 64 over bytes [0, 16+len)
//! ```
//!
//! Version 2 prefixes every body with an 8-byte **trace hint** — the
//! causal trace id of the transaction the payload belongs to (see
//! `bft-obs`'s trace module), or 0 when untraced (all handshake
//! frames). The hint lets the transport attribute wire-level events to
//! a trace without decoding the payload. Version-1 frames (no hint)
//! are still decoded, with the hint reported as 0, so rolling upgrades
//! interoperate; encoding always emits version 2.
//!
//! The checksum trailer guards against accidental corruption and makes
//! stream desynchronisation fail loudly; it is *not* an authenticator
//! (see [`bft_types::hash`]). Decoding is strict: bad magic, unknown
//! version/kind, oversize lengths, truncation and checksum mismatches
//! are typed [`DecodeError`]s.

use bft_types::hash::{fnv1a64, Fnv64};
use bft_types::wire::{put_u16, put_u32, put_u64, DecodeError, Reader, MAX_PAYLOAD};

/// Frame magic: `0xAB84`.
pub const MAGIC: u16 = 0xAB84;
/// Current codec version (body carries a trace-hint prefix).
pub const VERSION: u8 = 2;
/// The previous codec version (no trace hint), still accepted on decode.
pub const VERSION_V1: u8 = 1;
/// Size of the version-2 trace-hint body prefix in bytes.
pub const TRACE_HINT_LEN: usize = 8;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Checksum trailer size in bytes.
pub const TRAILER_LEN: usize = 8;
/// Total framing overhead added to a payload at the current version.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + TRACE_HINT_LEN + TRAILER_LEN;

/// The kind of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Handshake step 1: dialer introduces itself with a nonce.
    Hello,
    /// Handshake step 2: accepter answers with its own nonce and tag.
    Challenge,
    /// Handshake step 3: dialer proves knowledge of the preshared key.
    Auth,
    /// An authenticated protocol message.
    Msg,
    /// A cumulative receive acknowledgement, flowing receiver → sender on
    /// the same connection: `seq` is the highest contiguously processed
    /// frame, and lets the sender trim its replay log.
    Ack,
    /// Gateway: a client submits a transaction. `seq` is the client's own
    /// per-client sequence number (starting at 1); the body is the
    /// gateway submit payload (client id + transaction bytes).
    Submit,
    /// Gateway: the submitted transaction **committed** in the total
    /// order. `seq` echoes the client sequence number being acked.
    SubmitOk,
    /// Gateway: the submission was rejected (backpressure, sequence gap,
    /// oversize); the body carries a typed reason. `seq` echoes the
    /// client sequence number being nacked.
    SubmitNack,
}

impl FrameKind {
    /// The wire discriminant.
    pub const fn wire_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Challenge => 2,
            FrameKind::Auth => 3,
            FrameKind::Msg => 4,
            FrameKind::Ack => 5,
            FrameKind::Submit => 6,
            FrameKind::SubmitOk => 7,
            FrameKind::SubmitNack => 8,
        }
    }

    /// Parses the wire discriminant, strictly.
    pub const fn from_wire_byte(b: u8) -> Result<Self, DecodeError> {
        match b {
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::Challenge),
            3 => Ok(FrameKind::Auth),
            4 => Ok(FrameKind::Msg),
            5 => Ok(FrameKind::Ack),
            6 => Ok(FrameKind::Submit),
            7 => Ok(FrameKind::SubmitOk),
            8 => Ok(FrameKind::SubmitNack),
            other => Err(DecodeError::BadKind(other)),
        }
    }
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame kind.
    pub kind: FrameKind,
    /// Per-link sequence number (0 for handshake frames).
    pub seq: u64,
    /// Causal-trace hint (0 when untraced or decoded from a v1 frame).
    pub trace: u64,
    /// The kind-specific body (trace hint stripped).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds an untraced frame (trace hint 0).
    pub fn new(kind: FrameKind, seq: u64, payload: Vec<u8>) -> Self {
        Frame { kind, seq, trace: 0, payload }
    }

    /// Builds a frame carrying a causal-trace hint.
    pub fn traced(kind: FrameKind, seq: u64, trace: u64, payload: Vec<u8>) -> Self {
        Frame { kind, seq, trace, payload }
    }

    /// Encodes the frame, including header and checksum trailer.
    ///
    /// Fails with [`PayloadTooLarge`] when the payload exceeds
    /// [`MAX_PAYLOAD`]; such a frame would be rejected by every receiver
    /// at decode, so it must never reach the wire.
    pub fn encode(&self) -> Result<Vec<u8>, PayloadTooLarge> {
        encode_frame(self.kind, self.seq, self.trace, &self.payload)
    }

    /// Decodes a frame that must span the whole buffer.
    ///
    /// This is the strict single-buffer entry point (tests, fuzzing); the
    /// stream path is [`decode_prefix`].
    pub fn decode(buf: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = Reader::new(buf);
        let header = parse_header(&mut r)?;
        let body = r.take(header.len as usize)?.to_vec();
        let got = r.u64()?;
        r.finish()?;
        let mut h = Fnv64::new();
        h.update(&buf[..HEADER_LEN + body.len()]);
        let expected = h.finish();
        if expected != got {
            return Err(DecodeError::Checksum { expected, got });
        }
        let (trace, payload) = split_body(header.version, body);
        Ok(Frame { kind: header.kind, seq: header.seq, trace, payload })
    }
}

/// Splits a version-2 body into its trace hint and payload; a version-1
/// body is all payload with hint 0. `parse_header` has already enforced
/// `len ≥ TRACE_HINT_LEN` for version 2.
fn split_body(version: u8, mut body: Vec<u8>) -> (u64, Vec<u8>) {
    if version == VERSION_V1 {
        return (0, body);
    }
    let mut hint = [0u8; TRACE_HINT_LEN];
    hint.copy_from_slice(&body[..TRACE_HINT_LEN]);
    body.drain(..TRACE_HINT_LEN);
    (u64::from_le_bytes(hint), body)
}

/// A decoded frame whose payload still lives in the receive buffer.
///
/// The reactor's inbound path peels frames off a connection buffer as
/// views, so a protocol message is decoded straight out of that buffer
/// instead of through a per-frame payload copy. [`Frame`] is the owning
/// form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// The frame kind.
    pub kind: FrameKind,
    /// Per-link sequence number (0 for handshake frames).
    pub seq: u64,
    /// Causal-trace hint (0 when untraced or decoded from a v1 frame).
    pub trace: u64,
    /// The kind-specific body (trace hint stripped).
    pub payload: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// Decodes one frame from the **front** of an accumulation buffer:
    /// the borrowing form of [`decode_prefix`], same contract.
    pub fn decode_prefix(buf: &'a [u8]) -> Result<Option<(Self, usize)>, DecodeError> {
        let Some(head) = buf.get(..HEADER_LEN) else { return Ok(None) };
        let header = parse_header(&mut Reader::new(head))?;
        // `len` is capped at MAX_PAYLOAD + TRACE_HINT_LEN by parse_header,
        // so this sum is far from usize overflow.
        let trailer_at = HEADER_LEN + header.len as usize;
        let total = trailer_at + TRAILER_LEN;
        let Some(frame) = buf.get(..total) else { return Ok(None) };
        let (covered, trailer) = frame.split_at(trailer_at);
        let got = Reader::new(trailer).u64()?;
        let expected = fnv1a64(covered);
        if expected != got {
            return Err(DecodeError::Checksum { expected, got });
        }
        let mut body = Reader::new(covered.get(HEADER_LEN..).unwrap_or_default());
        // A version-1 body is all payload with hint 0; `parse_header` has
        // already enforced `len ≥ TRACE_HINT_LEN` for version 2.
        let trace = if header.version == VERSION_V1 { 0 } else { body.u64()? };
        let payload = body.take(body.remaining())?;
        Ok(Some((FrameRef { kind: header.kind, seq: header.seq, trace, payload }, total)))
    }

    /// Copies the view into an owning [`Frame`].
    pub fn to_frame(self) -> Frame {
        Frame { kind: self.kind, seq: self.seq, trace: self.trace, payload: self.payload.to_vec() }
    }
}

/// The typed encode-side failure: the payload exceeds [`MAX_PAYLOAD`].
///
/// Encoding enforces the same hard cap that header parsing enforces on
/// decode ([`DecodeError::Oversize`]); the limits are symmetric, so a
/// frame that encodes successfully is never rejected for size by a
/// receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayloadTooLarge {
    /// The offending payload length in bytes.
    pub len: usize,
}

impl std::fmt::Display for PayloadTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload of {} bytes exceeds the frame cap of {} bytes", self.len, MAX_PAYLOAD)
    }
}

impl std::error::Error for PayloadTooLarge {}

/// Encodes a version-2 frame from a borrowed payload.
///
/// This is the hot-path entry point: broadcast bodies are `Arc`-shared
/// between the links' replay logs and must not be cloned per frame. Payloads
/// above [`MAX_PAYLOAD`] fail with a typed [`PayloadTooLarge`] error
/// instead of silently emitting a frame every receiver must reject.
pub fn encode_frame(
    kind: FrameKind,
    seq: u64,
    trace: u64,
    payload: &[u8],
) -> Result<Vec<u8>, PayloadTooLarge> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut out, kind, seq, trace, payload)?;
    Ok(out)
}

/// Appends one encoded version-2 frame to `out` — [`encode_frame`]
/// without the per-frame allocation, for callers that already own an
/// output buffer (the reactor's per-connection write buffer). Bytes
/// already in `out` are untouched, and nothing is appended on error.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    kind: FrameKind,
    seq: u64,
    trace: u64,
    payload: &[u8],
) -> Result<(), PayloadTooLarge> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(PayloadTooLarge { len: payload.len() });
    }
    let start = out.len();
    out.reserve(FRAME_OVERHEAD + payload.len());
    put_u16(out, MAGIC);
    out.push(VERSION);
    out.push(kind.wire_byte());
    put_u64(out, seq);
    put_u32(out, (TRACE_HINT_LEN + payload.len()) as u32);
    put_u64(out, trace);
    out.extend_from_slice(payload);
    let checksum = fnv1a64(out.get(start..).unwrap_or_default());
    put_u64(out, checksum);
    Ok(())
}

/// The parsed fixed header.
struct Header {
    version: u8,
    kind: FrameKind,
    seq: u64,
    len: u32,
}

fn parse_header(r: &mut Reader<'_>) -> Result<Header, DecodeError> {
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION && version != VERSION_V1 {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = FrameKind::from_wire_byte(r.u8()?)?;
    let seq = r.u64()?;
    let len = r.u32()?;
    // The cap applies to the payload proper; v2 bodies carry the hint
    // on top and must be at least hint-sized.
    let (floor, cap) = if version == VERSION_V1 {
        (0, MAX_PAYLOAD)
    } else {
        (TRACE_HINT_LEN as u32, MAX_PAYLOAD + TRACE_HINT_LEN as u32)
    };
    if len > cap || len < floor {
        return Err(DecodeError::Oversize(len));
    }
    Ok(Header { version, kind, seq, len })
}

/// Attempts to decode one frame from the **front** of an accumulation
/// buffer, without blocking.
///
/// Nonblocking reads append raw bytes to a per-connection buffer, and
/// this peels complete frames off the front (the reactor itself uses the
/// borrowing [`FrameRef::decode_prefix`]).
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; the caller must
///   drain `consumed` bytes from the front of the buffer.
/// * `Ok(None)` — the buffer holds only a frame prefix; read more.
/// * `Err(..)` — the stream is corrupt (bad magic/version/kind, oversize
///   length, checksum mismatch); the caller should drop the connection.
///
/// Header validation runs as soon as `HEADER_LEN` bytes are present, so
/// a corrupt or oversize header is rejected before any body buffering.
pub fn decode_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, DecodeError> {
    Ok(FrameRef::decode_prefix(buf)?.map(|(frame, used)| (frame.to_frame(), used)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(FrameKind::Msg, 7, vec![1, 2, 3]);
        let bytes = f.encode().unwrap_or_default();
        assert_eq!(bytes.len(), FRAME_OVERHEAD + 3);
        assert_eq!(Frame::decode(&bytes), Ok(f.clone()));
        assert_eq!(decode_prefix(&bytes), Ok(Some((f, bytes.len()))));
    }

    #[test]
    fn ack_frame_round_trips_at_fixed_size() {
        let f = Frame::new(FrameKind::Ack, 48, Vec::new());
        let bytes = f.encode().unwrap_or_default();
        // Empty payload ⇒ an ack is exactly the framing overhead.
        assert_eq!(bytes.len(), FRAME_OVERHEAD);
        assert_eq!(Frame::decode(&bytes), Ok(f));
    }

    #[test]
    fn trace_hint_round_trips() {
        let f = Frame::traced(FrameKind::Msg, 9, 0xDEAD_BEEF_1984_0001, vec![4, 5]);
        let bytes = f.encode().unwrap_or_default();
        assert_eq!(bytes[2], VERSION);
        assert_eq!(Frame::decode(&bytes), Ok(f.clone()));
        assert_eq!(decode_prefix(&bytes), Ok(Some((f, bytes.len()))));
    }

    /// Hand-builds a version-1 frame (no trace hint) byte-by-byte.
    fn v1_frame(kind: FrameKind, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u16(&mut out, MAGIC);
        out.push(VERSION_V1);
        out.push(kind.wire_byte());
        put_u64(&mut out, seq);
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
        let mut h = Fnv64::new();
        h.update(&out);
        put_u64(&mut out, h.finish());
        out
    }

    #[test]
    fn version_one_frames_still_decode_with_zero_hint() {
        let bytes = v1_frame(FrameKind::Msg, 3, &[7, 8, 9]);
        let expected = Frame::new(FrameKind::Msg, 3, vec![7, 8, 9]);
        assert_eq!(Frame::decode(&bytes), Ok(expected.clone()));
        assert_eq!(decode_prefix(&bytes), Ok(Some((expected, bytes.len()))));
        // An empty v1 body is legal; an empty v2 body (no room for the
        // hint) is not.
        let empty = v1_frame(FrameKind::Hello, 0, &[]);
        assert!(Frame::decode(&empty).is_ok());
    }

    #[test]
    fn v2_body_shorter_than_the_hint_is_rejected() {
        let mut bytes = Frame::new(FrameKind::Msg, 0, Vec::new()).encode().unwrap_or_default();
        // Shrink the body length below the hint size and re-checksum.
        bytes[12..16].copy_from_slice(&4u32.to_le_bytes());
        bytes.truncate(HEADER_LEN + 4);
        let mut h = Fnv64::new();
        h.update(&bytes);
        let sum = h.finish();
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(DecodeError::Oversize(4))));
    }

    #[test]
    fn corruption_is_caught() {
        let mut bytes = Frame::new(FrameKind::Msg, 1, vec![9; 8]).encode().unwrap_or_default();
        bytes[20] ^= 0xff;
        assert!(matches!(Frame::decode(&bytes), Err(DecodeError::Checksum { .. })));
    }

    #[test]
    fn bad_magic_version_kind() {
        let good = Frame::new(FrameKind::Hello, 0, Vec::new()).encode().unwrap_or_default();
        let mut m = good.clone();
        m[0] = 0;
        assert!(matches!(Frame::decode(&m), Err(DecodeError::BadMagic(_))));
        let mut v = good.clone();
        v[2] = 9;
        assert!(matches!(Frame::decode(&v), Err(DecodeError::BadVersion(9))));
        let mut k = good;
        k[3] = 0;
        assert!(matches!(Frame::decode(&k), Err(DecodeError::BadKind(0))));
    }

    #[test]
    fn oversize_is_rejected_before_allocation() {
        let mut bytes = Frame::new(FrameKind::Msg, 0, Vec::new()).encode().unwrap_or_default();
        let over = MAX_PAYLOAD + TRACE_HINT_LEN as u32 + 1;
        bytes[12..16].copy_from_slice(&over.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(DecodeError::Oversize(_))));
    }

    #[test]
    fn prefix_decode_peels_frames_incrementally() {
        let a = Frame::new(FrameKind::Msg, 1, vec![1, 2, 3]);
        let b = Frame::traced(FrameKind::Submit, 2, 0xAB, vec![4; 40]);
        let mut stream = a.encode().unwrap_or_default();
        stream.extend_from_slice(&b.encode().unwrap_or_default());

        // Byte-by-byte arrival: no prefix shorter than the first frame
        // decodes, and nothing errors.
        let first_len = FRAME_OVERHEAD + 3;
        for cut in 0..first_len {
            assert_eq!(decode_prefix(&stream[..cut]), Ok(None), "cut={cut}");
        }
        let (got_a, used_a) = decode_prefix(&stream[..first_len])
            .ok()
            .flatten()
            .unwrap_or_else(|| panic!("first frame must decode"));
        assert_eq!(got_a, a);
        assert_eq!(used_a, first_len);

        // The second frame decodes off the remaining buffer.
        let rest = &stream[used_a..];
        let (got_b, used_b) = decode_prefix(rest)
            .ok()
            .flatten()
            .unwrap_or_else(|| panic!("second frame must decode"));
        assert_eq!(got_b, b);
        assert_eq!(used_b, rest.len());
    }

    #[test]
    fn prefix_decode_rejects_corruption_eagerly() {
        let mut bytes = Frame::new(FrameKind::Msg, 1, vec![9; 8]).encode().unwrap_or_default();
        // A bad header fails as soon as the header is buffered, before
        // the body arrives.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = 0;
        assert!(matches!(decode_prefix(&bad_magic[..HEADER_LEN]), Err(DecodeError::BadMagic(_))));
        // A flipped body byte fails the checksum once complete.
        bytes[20] ^= 0xff;
        assert!(matches!(decode_prefix(&bytes), Err(DecodeError::Checksum { .. })));
    }

    #[test]
    fn gateway_kinds_round_trip() {
        for kind in [FrameKind::Submit, FrameKind::SubmitOk, FrameKind::SubmitNack] {
            let f = Frame::new(kind, 42, vec![1, 2]);
            let bytes = f.encode().unwrap_or_default();
            assert_eq!(Frame::decode(&bytes), Ok(f));
            assert_eq!(FrameKind::from_wire_byte(kind.wire_byte()), Ok(kind));
        }
    }

    #[test]
    fn empty_and_cut_buffers_need_more_and_corruption_is_typed() {
        assert_eq!(decode_prefix(&[]), Ok(None));

        let mut full = Frame::new(FrameKind::Msg, 3, vec![5; 10]).encode().unwrap_or_default();
        assert_eq!(decode_prefix(&full[..full.len() - 4]), Ok(None));

        full[HEADER_LEN + TRACE_HINT_LEN] ^= 0xff;
        assert!(matches!(decode_prefix(&full), Err(DecodeError::Checksum { .. })));
    }
}
