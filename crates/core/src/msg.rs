//! Wire types of the consensus protocol.

use bft_rbc::{CodedPayload, RbcMuxMessage};
use bft_types::wire::{Codec, DecodeError, Reader};
use bft_types::{Round, Step, Value};
use std::fmt;

/// Classification of a wire message: kind label plus approximate bytes.
///
/// This mirrors `bft_sim::MsgClass` without depending on the simulator
/// (protocol code is transport-agnostic); harnesses convert at the
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireClass {
    /// Protocol-level message kind, `"<rbc phase>/<step>"`.
    pub kind: &'static str,
    /// Approximate serialized size in bytes.
    pub bytes: usize,
}

/// The tag identifying one reliable-broadcast instance of the consensus
/// protocol: each node broadcasts exactly one payload per `(round, step)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepTag {
    /// The consensus round.
    pub round: Round,
    /// The step within the round.
    pub step: Step,
}

impl StepTag {
    /// Creates a tag.
    pub const fn new(round: Round, step: Step) -> Self {
        StepTag { round, step }
    }
}

impl fmt::Display for StepTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.round, self.step)
    }
}

impl Codec for StepTag {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.step.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let round = Round::decode(r)?;
        let step = Step::decode(r)?;
        Ok(StepTag::new(round, step))
    }
}

/// The payload a node reliably broadcasts in one protocol step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepPayload {
    /// Step 1: the node's current estimate.
    Initial(Value),
    /// Step 2: the majority value of the node's Initial quorum.
    Echo(Value),
    /// Step 3: the node's Echo outcome. `flagged` is the *D-flag*: true
    /// iff more than `n/2` of the node's Echo quorum carried `value`.
    Ready {
        /// The carried value.
        value: Value,
        /// Whether the value is locked (D-flagged).
        flagged: bool,
    },
}

impl StepPayload {
    /// The value carried by the payload.
    pub fn value(&self) -> Value {
        match *self {
            StepPayload::Initial(v) | StepPayload::Echo(v) => v,
            StepPayload::Ready { value, .. } => value,
        }
    }

    /// The step this payload belongs to.
    pub fn step(&self) -> Step {
        match self {
            StepPayload::Initial(_) => Step::Initial,
            StepPayload::Echo(_) => Step::Echo,
            StepPayload::Ready { .. } => Step::Ready,
        }
    }

    /// Whether this is a D-flagged Ready payload.
    pub fn is_flagged(&self) -> bool {
        matches!(self, StepPayload::Ready { flagged: true, .. })
    }
}

/// Byte form for erasure coding. Consensus payloads are two bytes, far
/// below any sensible fragmentation threshold — the ABA layer always runs
/// [`bft_rbc::RbcKind::Bracha`] — but the codec must exist for the mux's
/// trait bounds, and decoding is total (garbage falls back to
/// `Initial(Zero)`, which the step-vs-tag check in the engine rejects).
impl CodedPayload for StepPayload {
    fn to_coded_bytes(&self) -> Vec<u8> {
        match *self {
            StepPayload::Initial(v) => vec![0, v as u8],
            StepPayload::Echo(v) => vec![1, v as u8],
            StepPayload::Ready { value, flagged } => vec![2, value as u8, flagged as u8],
        }
    }

    fn from_coded_bytes(bytes: Vec<u8>) -> Self {
        let value = |b: &u8| if *b == 1 { Value::One } else { Value::Zero };
        match bytes.as_slice() {
            [0, v] => StepPayload::Initial(value(v)),
            [1, v] => StepPayload::Echo(value(v)),
            [2, v, fl] => StepPayload::Ready { value: value(v), flagged: *fl == 1 },
            _ => StepPayload::Initial(Value::Zero),
        }
    }
}

impl fmt::Display for StepPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepPayload::Initial(v) => write!(f, "initial({v})"),
            StepPayload::Echo(v) => write!(f, "echo({v})"),
            StepPayload::Ready { value, flagged: true } => write!(f, "ready({value}*)"),
            StepPayload::Ready { value, flagged: false } => write!(f, "ready({value})"),
        }
    }
}

impl Codec for StepPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StepPayload::Initial(v) => {
                out.push(0);
                v.encode(out);
            }
            StepPayload::Echo(v) => {
                out.push(1);
                v.encode(out);
            }
            StepPayload::Ready { value, flagged } => {
                out.push(2);
                value.encode(out);
                flagged.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(StepPayload::Initial(Value::decode(r)?)),
            1 => Ok(StepPayload::Echo(Value::decode(r)?)),
            2 => {
                let value = Value::decode(r)?;
                let flagged = bool::decode(r)?;
                Ok(StepPayload::Ready { value, flagged })
            }
            got => Err(DecodeError::Invalid { what: "step payload discriminant", got: got as u64 }),
        }
    }
}

/// The wire message of the consensus protocol: a reliable-broadcast
/// message for instance `(origin node, round, step)`.
pub type Wire = RbcMuxMessage<StepTag, StepPayload>;

/// Classifies a [`Wire`] message for the simulator's metrics: kind label
/// `"<rbc phase>/<step>"` and an approximate wire size (tag + payload +
/// phase byte).
pub fn classify_wire(msg: &Wire) -> WireClass {
    let step = match msg.msg.payload().map(StepPayload::step) {
        Some(Step::Initial) => "initial",
        Some(Step::Echo) => "echo",
        Some(Step::Ready) => "ready",
        // Coded phases carry fragments, not a step payload; the ABA layer
        // never speaks them, but the classifier stays total.
        None => "coded",
    };
    let kind = match (&msg.msg, step) {
        (bft_rbc::RbcMessage::Send(_), "initial") => "send/initial",
        (bft_rbc::RbcMessage::Send(_), "echo") => "send/echo",
        (bft_rbc::RbcMessage::Send(_), _) => "send/ready",
        (bft_rbc::RbcMessage::Echo(_), "initial") => "echo/initial",
        (bft_rbc::RbcMessage::Echo(_), "echo") => "echo/echo",
        (bft_rbc::RbcMessage::Echo(_), _) => "echo/ready",
        (bft_rbc::RbcMessage::Ready(_), "initial") => "ready/initial",
        (bft_rbc::RbcMessage::Ready(_), "echo") => "ready/echo",
        (bft_rbc::RbcMessage::Ready(_), _) => "ready/ready",
        (bft_rbc::RbcMessage::CodedSend { .. }, _) => "csend",
        (bft_rbc::RbcMessage::CodedEcho { .. }, _) => "cecho",
        (bft_rbc::RbcMessage::CodedReady { .. }, _) => "cready",
    };
    // sender id (4) + round (8) + step (1) + rbc phase (1) + value/flag (2);
    // coded phases add the root and any fragment they carry.
    let bytes = match &msg.msg {
        bft_rbc::RbcMessage::CodedSend { fragment, .. }
        | bft_rbc::RbcMessage::CodedEcho { fragment, .. } => 22 + fragment.weight(),
        bft_rbc::RbcMessage::CodedReady { .. } => 22,
        _ => 16,
    };
    WireClass { kind, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_rbc::RbcMessage;
    use bft_types::NodeId;

    #[test]
    fn wire_round_trips() {
        let w: Wire = Wire {
            sender: NodeId::new(3),
            tag: StepTag::new(Round::new(2), Step::Echo),
            msg: RbcMessage::Ready(StepPayload::Ready { value: Value::One, flagged: true }),
        };
        assert_eq!(Wire::from_bytes(&w.to_bytes()), Ok(w));
    }

    #[test]
    fn payload_accessors() {
        let p = StepPayload::Ready { value: Value::One, flagged: true };
        assert_eq!(p.value(), Value::One);
        assert_eq!(p.step(), Step::Ready);
        assert!(p.is_flagged());
        assert!(!StepPayload::Initial(Value::Zero).is_flagged());
        assert_eq!(StepPayload::Echo(Value::Zero).step(), Step::Echo);
    }

    #[test]
    fn display_formats() {
        assert_eq!(StepPayload::Initial(Value::One).to_string(), "initial(1)");
        assert_eq!(
            StepPayload::Ready { value: Value::Zero, flagged: true }.to_string(),
            "ready(0*)"
        );
        assert_eq!(StepTag::new(Round::new(3), Step::Echo).to_string(), "r3/echo");
    }

    #[test]
    fn classifier_distinguishes_phases_and_steps() {
        let mk = |msg: RbcMessage<StepPayload>| Wire {
            sender: NodeId::new(0),
            tag: StepTag::new(Round::FIRST, msg.payload().map_or(Step::Initial, |p| p.step())),
            msg,
        };
        let kinds: Vec<&str> = [
            mk(RbcMessage::Send(StepPayload::Initial(Value::One))),
            mk(RbcMessage::Echo(StepPayload::Initial(Value::One))),
            mk(RbcMessage::Ready(StepPayload::Echo(Value::One))),
            mk(RbcMessage::Ready(StepPayload::Ready { value: Value::One, flagged: false })),
        ]
        .iter()
        .map(|m| classify_wire(m).kind)
        .collect();
        assert_eq!(kinds, vec!["send/initial", "echo/initial", "ready/echo", "ready/ready"]);
    }
}
