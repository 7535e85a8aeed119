//! Wire messages of one reliable-broadcast instance.

use bft_ec::Fragment;
use bft_types::wire::{put_u64, Codec, DecodeError, Reader};
use std::fmt;

/// A message of a reliable-broadcast instance — either of Bracha's
/// original full-payload protocol or of the erasure-coded variant.
///
/// The payload type `P` is generic; the consensus layer instantiates it
/// with its own (round, step, value) records, the examples with byte
/// strings. The coded variants carry [`Fragment`]s instead of `P` — the
/// payload only rematerialises at reconstruction time.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RbcMessage<P> {
    /// The designated sender's initial dissemination of the payload.
    Send(P),
    /// "I have seen the sender's payload `m`." Sent at most once per node.
    Echo(P),
    /// "I am convinced the payload is `m`." Sent at most once per node,
    /// triggered by an Echo quorum or by `f + 1` Readys.
    Ready(P),
    /// Coded dissemination: the designated sender unicasts node `i`'s
    /// fragment, committed under `root`.
    CodedSend {
        /// The sender's fragment-set commitment.
        root: u64,
        /// The recipient's own fragment of the codeword.
        fragment: Fragment,
    },
    /// "Here is my verified fragment of commitment `root`." Broadcast at
    /// most once per node; the fragment index equals the echoing node.
    CodedEcho {
        /// The sender's fragment-set commitment.
        root: u64,
        /// The echoing node's own fragment.
        fragment: Fragment,
    },
    /// "I am convinced of commitment `root`." Sent at most once per node,
    /// triggered by an `n − f` Echo quorum or by `f + 1` Readys.
    CodedReady {
        /// The sender's fragment-set commitment.
        root: u64,
    },
}

impl<P> RbcMessage<P> {
    /// The full payload carried by this message — `None` for the coded
    /// variants, which carry fragments of a payload rather than one.
    pub fn payload(&self) -> Option<&P> {
        match self {
            RbcMessage::Send(p) | RbcMessage::Echo(p) | RbcMessage::Ready(p) => Some(p),
            RbcMessage::CodedSend { .. }
            | RbcMessage::CodedEcho { .. }
            | RbcMessage::CodedReady { .. } => None,
        }
    }

    /// Short label of the message kind, for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            RbcMessage::Send(_) => "rbc-send",
            RbcMessage::Echo(_) => "rbc-echo",
            RbcMessage::Ready(_) => "rbc-ready",
            RbcMessage::CodedSend { .. } => "rbc-csend",
            RbcMessage::CodedEcho { .. } => "rbc-cecho",
            RbcMessage::CodedReady { .. } => "rbc-cready",
        }
    }
}

impl<P: Codec> Codec for RbcMessage<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RbcMessage::Send(p) => {
                out.push(0);
                p.encode(out);
            }
            RbcMessage::Echo(p) => {
                out.push(1);
                p.encode(out);
            }
            RbcMessage::Ready(p) => {
                out.push(2);
                p.encode(out);
            }
            RbcMessage::CodedSend { root, fragment } => {
                out.push(3);
                put_u64(out, *root);
                fragment.encode(out);
            }
            RbcMessage::CodedEcho { root, fragment } => {
                out.push(4);
                put_u64(out, *root);
                fragment.encode(out);
            }
            RbcMessage::CodedReady { root } => {
                out.push(5);
                put_u64(out, *root);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(RbcMessage::Send(P::decode(r)?)),
            1 => Ok(RbcMessage::Echo(P::decode(r)?)),
            2 => Ok(RbcMessage::Ready(P::decode(r)?)),
            3 => {
                let root = r.u64()?;
                let fragment = Fragment::decode(r)?;
                Ok(RbcMessage::CodedSend { root, fragment })
            }
            4 => {
                let root = r.u64()?;
                let fragment = Fragment::decode(r)?;
                Ok(RbcMessage::CodedEcho { root, fragment })
            }
            5 => Ok(RbcMessage::CodedReady { root: r.u64()? }),
            got => Err(DecodeError::Invalid { what: "rbc phase discriminant", got: got as u64 }),
        }
    }
}

impl<P: fmt::Display> fmt::Display for RbcMessage<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbcMessage::Send(p) => write!(f, "send({p})"),
            RbcMessage::Echo(p) => write!(f, "echo({p})"),
            RbcMessage::Ready(p) => write!(f, "ready({p})"),
            RbcMessage::CodedSend { root, fragment } => {
                write!(f, "csend({root:016x}, {fragment})")
            }
            RbcMessage::CodedEcho { root, fragment } => {
                write!(f, "cecho({root:016x}, {fragment})")
            }
            RbcMessage::CodedReady { root } => write!(f, "cready({root:016x})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag() -> Fragment {
        Fragment { index: 1, total_len: 3, shard: vec![7, 8].into(), proof: vec![9] }
    }

    #[test]
    fn payload_and_kind() {
        assert_eq!(RbcMessage::Send(5).payload(), Some(&5));
        assert_eq!(RbcMessage::Echo(5).payload(), Some(&5));
        assert_eq!(RbcMessage::Ready(5).payload(), Some(&5));
        assert_eq!(RbcMessage::Send(5).kind(), "rbc-send");
        assert_eq!(RbcMessage::Echo(5).kind(), "rbc-echo");
        assert_eq!(RbcMessage::Ready(5).kind(), "rbc-ready");
    }

    #[test]
    fn coded_variants_carry_no_payload() {
        let m: RbcMessage<u32> = RbcMessage::CodedSend { root: 1, fragment: frag() };
        assert_eq!(m.payload(), None);
        assert_eq!(m.kind(), "rbc-csend");
        let m: RbcMessage<u32> = RbcMessage::CodedEcho { root: 1, fragment: frag() };
        assert_eq!(m.payload(), None);
        assert_eq!(m.kind(), "rbc-cecho");
        let m: RbcMessage<u32> = RbcMessage::CodedReady { root: 1 };
        assert_eq!(m.payload(), None);
        assert_eq!(m.kind(), "rbc-cready");
    }

    #[test]
    fn display_formats() {
        assert_eq!(RbcMessage::Send("m").to_string(), "send(m)");
        assert_eq!(RbcMessage::Ready("m").to_string(), "ready(m)");
        let m: RbcMessage<&str> = RbcMessage::CodedReady { root: 0xab };
        assert_eq!(m.to_string(), "cready(00000000000000ab)");
    }
}
