//! The hand-rolled binary wire codec.
//!
//! No serde: every wire type implements [`Codec`] by hand, mirroring the
//! shim-crate philosophy of the workspace (the build is offline, and the
//! encodings are small enough that explicitness beats a derive). All
//! integers are little-endian. Decoding is *strict*: unknown
//! discriminants, out-of-range values, truncated input and trailing bytes
//! are all typed [`DecodeError`]s, never panics — a Byzantine peer owns
//! the bytes on the wire, so the decoder is protocol attack surface.

use crate::{NodeId, Round, Step, Value};
use std::fmt;

/// A strict decode failure.
///
/// Every variant carries enough context to debug a hostile or corrupted
/// frame; [`DecodeError::label`] gives the stable short form used by the
/// `FrameDecodeError` observability event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame did not start with the protocol magic.
    BadMagic(u16),
    /// The frame advertised an unsupported codec version.
    BadVersion(u8),
    /// The frame kind byte is not a known frame kind.
    BadKind(u8),
    /// The advertised payload length exceeds the hard cap.
    Oversize(u32),
    /// The checksum trailer did not match the frame contents.
    Checksum {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum carried in the trailer.
        got: u64,
    },
    /// The input ended before the structure was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remained after the outermost structure was fully decoded.
    Trailing {
        /// Number of unread bytes.
        unread: usize,
    },
    /// A field held a value outside its domain (bad discriminant, bad
    /// bit, round zero, invalid UTF-8, …).
    Invalid {
        /// Which field was out of range.
        what: &'static str,
        /// The offending raw value (0 when not representable).
        got: u64,
    },
}

impl DecodeError {
    /// A stable snake_case label for metrics and events.
    pub const fn label(&self) -> &'static str {
        match self {
            DecodeError::BadMagic(_) => "bad_magic",
            DecodeError::BadVersion(_) => "bad_version",
            DecodeError::BadKind(_) => "bad_kind",
            DecodeError::Oversize(_) => "oversize",
            DecodeError::Checksum { .. } => "checksum",
            DecodeError::Truncated { .. } => "truncated",
            DecodeError::Trailing { .. } => "trailing",
            DecodeError::Invalid { .. } => "invalid_value",
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::Oversize(n) => write!(f, "payload length {n} exceeds cap"),
            DecodeError::Checksum { expected, got } => {
                write!(f, "checksum mismatch: computed {expected:#018x}, trailer {got:#018x}")
            }
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            DecodeError::Trailing { unread } => {
                write!(f, "{unread} trailing bytes after a complete value")
            }
            DecodeError::Invalid { what, got } => write!(f, "invalid {what}: {got}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over a received byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes or fails with `Truncated`.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { needed: n, available: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = self.take(1)?;
        Ok(b.first().copied().unwrap_or_default())
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let mut a = [0u8; 2];
        a.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(a))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut a = [0u8; 4];
        a.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    /// Asserts the input was consumed exactly.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() > 0 {
            return Err(DecodeError::Trailing { unread: self.remaining() });
        }
        Ok(())
    }
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A type with a canonical binary wire encoding.
///
/// Encoding is infallible (the types are already validated); decoding is
/// strict and total — any byte string either decodes to a valid value or
/// returns a typed [`DecodeError`].
pub trait Codec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the cursor, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span the whole buffer (trailing bytes
    /// are an error).
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// The causal-trace id this value belongs to, stamped into the
    /// version-2 frame header so the transport can attribute wire-level
    /// events to a trace without decoding the payload. `0` (the
    /// default) means untraced.
    fn trace_hint(&self) -> u64 {
        0
    }
}

impl Codec for u8 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl Codec for u32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

impl Codec for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Codec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            got => Err(DecodeError::Invalid { what: "bool", got: got as u64 }),
        }
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

/// Upper bound on a wire-decoded node index, far above any supported
/// `n`. Downstream structures size per-node state by index
/// (`NodeBitset` panics past its capacity), so an unchecked 32-bit
/// index is a remote crash/allocation vector.
pub const MAX_WIRE_NODE_INDEX: usize = 4096;

impl Codec for NodeId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.index() as u32);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let index = r.u32()? as usize;
        if index > MAX_WIRE_NODE_INDEX {
            return Err(DecodeError::Invalid { what: "node index", got: index as u64 });
        }
        Ok(NodeId::new(index))
    }
}

impl Codec for Value {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.bit());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Value::Zero),
            1 => Ok(Value::One),
            got => Err(DecodeError::Invalid { what: "value bit", got: got as u64 }),
        }
    }
}

impl Codec for Round {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.get());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u64()? {
            0 => Err(DecodeError::Invalid { what: "round (rounds are 1-based)", got: 0 }),
            v => Ok(Round::new(v)),
        }
    }
}

impl Codec for Step {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Step::Initial),
            1 => Ok(Step::Echo),
            2 => Ok(Step::Ready),
            got => Err(DecodeError::Invalid { what: "step", got: got as u64 }),
        }
    }
}

/// Hard cap on a frame payload (1 MiB), excluding the trace hint; also
/// the cap on every length prefix a decoder accepts.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Byte strings are length-prefixed (`u32` LE), capped at
/// [`MAX_PAYLOAD`].
impl Codec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.u32()? as usize;
        if len > MAX_PAYLOAD as usize {
            return Err(DecodeError::Oversize(len as u32));
        }
        Ok(r.take(len)?.to_vec())
    }
}

/// Strings are length-prefixed UTF-8 (used by the RBC examples whose
/// payloads are text).
impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.u32()? as usize;
        if len > MAX_PAYLOAD as usize {
            return Err(DecodeError::Oversize(len as u32));
        }
        let bytes = r.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(DecodeError::Invalid { what: "utf-8 string", got: len as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes), Ok(v));
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(NodeId::new(7));
        round_trip(Value::One);
        round_trip(Round::new(42));
        round_trip(Step::Ready);
        round_trip("héllo".to_string());
    }

    #[test]
    fn strict_domains_reject() {
        assert_eq!(
            Value::from_bytes(&[2]),
            Err(DecodeError::Invalid { what: "value bit", got: 2 })
        );
        assert_eq!(
            Round::from_bytes(&[0; 8]),
            Err(DecodeError::Invalid { what: "round (rounds are 1-based)", got: 0 })
        );
        assert_eq!(bool::from_bytes(&[9]), Err(DecodeError::Invalid { what: "bool", got: 9 }));
        assert!(matches!(Step::from_bytes(&[3]), Err(DecodeError::Invalid { .. })));
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        assert_eq!(
            u32::from_bytes(&[1, 2]),
            Err(DecodeError::Truncated { needed: 4, available: 2 })
        );
        assert_eq!(u8::from_bytes(&[1, 2]), Err(DecodeError::Trailing { unread: 1 }));
        let bad_len = {
            let mut b = Vec::new();
            put_u32(&mut b, 100);
            b.push(b'x');
            b
        };
        assert!(matches!(String::from_bytes(&bad_len), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DecodeError::BadMagic(0).label(), "bad_magic");
        assert_eq!(DecodeError::Trailing { unread: 1 }.label(), "trailing");
    }
}
