//! The protocol event taxonomy: one table, the `events!` invocation
//! below, declares every event with its fields, doc and JSONL name.
//!
//! To add an event, add one entry there (and, if the aggregate should
//! count it, one arm to `MetricsSink::on_event`); its name, its place in
//! [`Event::NAMES`] and its JSONL line follow from the entry.

use crate::json::JsonValue;
use crate::trace::TracePhase;
use bft_types::{NodeId, Step, Value};
use std::fmt;

/// The reliable-broadcast phase of one instance at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RbcPhase {
    /// The instance has seen the designated sender's `Send`.
    Send,
    /// The node has broadcast its `Echo`.
    Echo,
    /// The node has broadcast its `Ready` (echo quorum or amplification).
    Ready,
}

impl RbcPhase {
    /// A stable lower-case label.
    pub const fn label(self) -> &'static str {
        match self {
            RbcPhase::Send => "send",
            RbcPhase::Echo => "echo",
            RbcPhase::Ready => "ready",
        }
    }
}

impl fmt::Display for RbcPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Syscall and frame counts of a node's reactor (`bft-net`): plain
/// integers bumped where the work happens. Ratios of these say what a
/// frame costs below the protocol — frames per write, the share of reads
/// that found nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// `poll(2)` calls (one per reactor pass).
    pub polls: u64,
    /// `read(2)` calls.
    pub reads: u64,
    /// Reads that returned `WouldBlock`.
    pub reads_blocked: u64,
    /// `write(2)` calls on peer and client connections.
    pub writes: u64,
    /// Frames decoded off a connection.
    pub frames_in: u64,
    /// Frames encoded onto a connection.
    pub frames_out: u64,
}

impl ReactorStats {
    /// Adds another reactor's counts to these.
    pub fn add(&mut self, other: &ReactorStats) {
        self.polls += other.polls;
        self.reads += other.reads;
        self.reads_blocked += other.reads_blocked;
        self.writes += other.writes;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
    }

    /// Mean frames carried per `write(2)` (0 before any write).
    pub fn frames_per_write(&self) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        self.frames_out as f64 / self.writes as f64
    }

    /// Each count with its key and a one-line description (the JSONL
    /// keys and the Prometheus `bft_reactor_<key>_total` counters).
    pub(crate) fn counts(&self) -> [(&'static str, &'static str, u64); 6] {
        [
            ("polls", "Reactor poll(2) calls", self.polls),
            ("reads", "Reactor read(2) calls", self.reads),
            ("reads_blocked", "Reactor reads that would block", self.reads_blocked),
            ("writes", "Reactor write(2) calls", self.writes),
            ("frames_in", "Frames decoded by reactors", self.frames_in),
            ("frames_out", "Frames encoded by reactors", self.frames_out),
        ]
    }
}

/// How one field of an [`Event`] lands in its JSONL line: as one
/// `key: value` pair, or spread over several keys.
trait JsonField {
    fn push_json(&self, key: &'static str, obj: &mut Vec<(String, JsonValue)>);
}

/// One-pair [`JsonField`] impls: `type => |field| its JSON value`.
macro_rules! json_field {
    ($($ty:ty => |$v:ident| $json:expr;)*) => {$(
        impl JsonField for $ty {
            fn push_json(&self, key: &'static str, obj: &mut Vec<(String, JsonValue)>) {
                let $v = self;
                obj.push((key.to_string(), $json));
            }
        }
    )*};
}

json_field! {
    u64 => |v| JsonValue::U64(*v);
    bool => |v| JsonValue::Bool(*v);
    &'static str => |v| JsonValue::str(*v);
    String => |v| JsonValue::str(v);
    NodeId => |v| JsonValue::U64(v.index() as u64);
    Value => |v| JsonValue::U64(v.index() as u64);
    Step => |v| JsonValue::str(v.to_string());
    RbcPhase => |v| JsonValue::str(v.label());
}

/// `phase`, then `round` for the per-round phases.
impl JsonField for TracePhase {
    fn push_json(&self, key: &'static str, obj: &mut Vec<(String, JsonValue)>) {
        obj.push((key.to_string(), JsonValue::str(self.name())));
        if self.round() > 0 {
            obj.push(("round".to_string(), JsonValue::U64(self.round())));
        }
    }
}

/// The six counts flat, each under its own key.
impl JsonField for ReactorStats {
    fn push_json(&self, _key: &'static str, obj: &mut Vec<(String, JsonValue)>) {
        for (key, _, count) in self.counts() {
            obj.push((key.to_string(), JsonValue::U64(count)));
        }
    }
}

/// Declares [`Event`] from one entry per variant — `"name" => Variant {
/// fields }` — and generates [`Event::name`], [`Event::NAMES`] and
/// [`Event::to_json`] from the same entries.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $name:literal => $variant:ident $({
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                })?,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl Event {
            /// Every event's name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// A stable snake_case name for the event variant (the `ev`
            /// field of the JSONL schema).
            pub const fn name(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $name, )*
                }
            }

            /// Serializes the event (with its timestamp and observing
            /// node) as one JSON object — the JSONL exporter's line
            /// format: `t`, `node`, `ev`, then each field in declaration
            /// order under its own name.
            pub fn to_json(&self, at: u64, node: NodeId) -> JsonValue {
                let mut obj = vec![
                    ("t".to_string(), JsonValue::U64(at)),
                    ("node".to_string(), JsonValue::U64(node.index() as u64)),
                    ("ev".to_string(), JsonValue::str(self.name())),
                ];
                match self {
                    $( Event::$variant $({ $($field),* })? => {
                        $($( JsonField::push_json($field, stringify!($field), &mut obj); )*)?
                    } )*
                }
                JsonValue::Obj(obj)
            }
        }
    };
}

events! {
    /// One protocol-level event, as observed at a single node.
    ///
    /// Events fall into layers, in declaration order:
    ///
    /// * **Transport** — emitted by the hosts (`bft-sim::World`, and
    ///   `bft-net`'s reactor, which adds the TCP-only link,
    ///   frame and syscall events): message send/delivery/drop, queue
    ///   depth samples, node halts, connections, reconnects and frames.
    /// * **Gateway, ordering and state machine** — emitted by `bft-order`
    ///   and `bft-smr`: client admission and acks, epochs, batches, log
    ///   appends, applied slots, checkpoints and state transfer.
    /// * **Reliable broadcast** — emitted by `bft-rbc` instances: phase
    ///   transitions, echo/ready quorums, coded fragments and RBC
    ///   delivery. The instance tag is `Debug`-formatted by the generic
    ///   multiplexer.
    /// * **Consensus** — emitted by the protocol state machines (`bracha`
    ///   engine and baselines): round/step structure, validation verdicts,
    ///   coin flips, locks and decisions.
    /// * **Tracing** — causal spans and invariant violations.
    pub enum Event {
        /// A message was enqueued for delivery to `to`.
        "message_sent" => MessageSent {
            /// Destination node.
            to: NodeId,
            /// Classifier kind label (`"msg"` when no classifier is installed).
            kind: &'static str,
            /// Approximate serialized bytes (0 when unclassified).
            bytes: u64,
        },
        /// A message from `from` was delivered to the observing node.
        "message_delivered" => MessageDelivered {
            /// Sending node.
            from: NodeId,
            /// Classifier kind label (`"msg"` when no classifier is installed).
            kind: &'static str,
        },
        /// A message from `from` was dropped (destination already halted).
        "message_dropped" => MessageDropped {
            /// Sending node.
            from: NodeId,
        },
        /// A periodic sample of the host's pending-delivery queue depth.
        "queue_depth" => QueueDepth {
            /// Messages currently in flight.
            depth: u64,
        },
        /// The observing node stopped participating.
        "node_halted" => NodeHalted,

        /// A transport connection to `peer` was established and authenticated
        /// for the first time (net runtime).
        "peer_connected" => PeerConnected {
            /// The authenticated peer.
            peer: NodeId,
        },
        /// A transport connection to or from `peer` failed or closed.
        "peer_disconnected" => PeerDisconnected {
            /// The peer on the other end of the link.
            peer: NodeId,
            /// A stable short reason label (`"closed"`, `"write-failed"`, …).
            reason: &'static str,
        },
        /// A reconnect attempt to `peer` failed; the dialer backs off before
        /// the next attempt.
        "reconnect_backoff" => ReconnectBackoff {
            /// The peer being redialed.
            peer: NodeId,
            /// 1-based attempt number within this reconnect episode.
            attempt: u64,
            /// Backoff delay before the next attempt, in milliseconds.
            delay_ms: u64,
        },
        /// A previously-connected link to `peer` was re-established and
        /// re-authenticated.
        "peer_reconnected" => PeerReconnected {
            /// The reconnected peer.
            peer: NodeId,
            /// Failed attempts before this episode succeeded.
            attempts: u64,
        },
        /// An inbound frame failed strict decoding (the connection is dropped
        /// and re-established by the dialer).
        "frame_decode_error" => FrameDecodeError {
            /// A stable short reason label (`"checksum"`, `"truncated"`, …).
            reason: &'static str,
        },
        /// An inbound frame from `from` skipped ahead of the expected per-link
        /// sequence number. Frames decoded fine — the *ordering* contract was
        /// violated, so the connection is dropped and the dialer replays.
        "frame_sequence_gap" => FrameSequenceGap {
            /// The peer whose stream jumped.
            from: NodeId,
            /// The sequence number the receiver was waiting for.
            expected: u64,
            /// The sequence number that actually arrived.
            got: u64,
        },
        /// An outbound message body exceeded the transport's frame cap and was
        /// rejected at the send boundary (never assigned a sequence number).
        "payload_rejected" => PayloadRejected {
            /// The encoded body length in bytes.
            len: u64,
        },
        /// High-water mark of one directed link's replay log (frames resident
        /// at once), emitted by the node's reactor at exit. With
        /// ack-based trimming this stays bounded by the ack cadence instead of
        /// growing with the run length.
        "link_log_peak" => LinkLogPeak {
            /// The link's destination peer.
            peer: NodeId,
            /// Peak number of frames held in the log.
            frames: u64,
        },
        /// What one node's reactor did over the whole run, emitted
        /// once at exit next to its `LinkLogPeak`s.
        "reactor_stats" => ReactorStats {
            /// The node's counts, one JSONL key each.
            stats: ReactorStats,
        },
        /// A transport worker thread panicked and poisoned shared runtime
        /// state. The runtime rides through the poison to keep the report
        /// usable, but the panic must not be silent: hung-test triage starts
        /// here (and at the matching `RuntimeReport::poisoned` flag).
        "poison_detected" => PoisonDetected {
            /// Which runtime component the panic surfaced in.
            context: &'static str,
        },

        /// The gateway accepted a client submission into the node's mempool
        /// (per-client sequence check passed, `submit` succeeded).
        "gateway_accepted" => GatewayAccepted {
            /// The submitting client's id.
            client: u64,
            /// The client's per-client sequence number.
            seq: u64,
        },
        /// The gateway rejected a client submission with a typed NACK.
        "gateway_nacked" => GatewayNacked {
            /// The submitting client's id.
            client: u64,
            /// The client's per-client sequence number.
            seq: u64,
            /// Why: `"backpressure"`, `"sequence_gap"`, or `"oversize"`.
            reason: &'static str,
        },
        /// A gateway-accepted transaction committed in the total order and
        /// the positive ack was queued back to the client.
        "gateway_committed" => GatewayCommitted {
            /// The submitting client's id.
            client: u64,
            /// The client's per-client sequence number.
            seq: u64,
            /// The epoch the transaction committed in.
            epoch: u64,
        },

        /// The observing node started an ordering epoch (proposed its batch
        /// and opened the epoch's ACS instance).
        "epoch_started" => EpochStarted {
            /// The 0-based epoch number.
            epoch: u64,
        },
        /// The epoch's ACS decided: the observing node knows the epoch's
        /// committed batch set.
        "epoch_committed" => EpochCommitted {
            /// The 0-based epoch number.
            epoch: u64,
            /// Proposer slots accepted into the epoch (ABA decided One).
            slots: u64,
            /// Total transactions across the accepted batches.
            txs: u64,
        },
        /// The observing node submitted its own batch into an epoch.
        "batch_submitted" => BatchSubmitted {
            /// The 0-based epoch number carrying the batch.
            epoch: u64,
            /// Transactions in the batch.
            txs: u64,
            /// Total payload bytes in the batch.
            bytes: u64,
        },
        /// A committed epoch's entries were appended to the totally-ordered
        /// log (epochs append strictly in order).
        "log_delivered" => LogDelivered {
            /// The 0-based epoch number just appended.
            epoch: u64,
            /// Entries appended by this epoch.
            entries: u64,
            /// Cumulative log length after the append.
            total: u64,
        },

        /// The observing node's state machine applied one committed log slot
        /// (one `(epoch, proposer)` log entry).
        "slot_applied" => SlotApplied {
            /// The epoch the slot was committed in.
            epoch: u64,
            /// The node that proposed the batch carrying the slot.
            proposer: NodeId,
            /// Payload bytes of the applied transaction.
            bytes: u64,
        },
        /// The observing node reached a checkpoint boundary and RBC-broadcast
        /// its state hash for agreement.
        "checkpoint_proposed" => CheckpointProposed {
            /// The checkpoint epoch (state covers epochs `0..epoch`).
            epoch: u64,
            /// The FNV state hash over the canonical snapshot.
            hash: u64,
        },
        /// The observing node collected a `2f + 1`-matching checkpoint
        /// certificate: that many distinct nodes RBC-delivered the same state
        /// hash for the epoch, so older snapshots can be dropped and a peer
        /// behind it can catch up by fetching this one.
        "checkpoint_certified" => CheckpointCertified {
            /// The certified checkpoint epoch.
            epoch: u64,
            /// The agreed state hash.
            hash: u64,
            /// Distinct nodes whose delivered hash matched.
            support: u64,
        },
        /// The observing node fell behind a certified checkpoint and began
        /// fetching the snapshot from its peers in erasure-coded chunks.
        "state_transfer_started" => StateTransferStarted {
            /// The checkpoint epoch being fetched.
            epoch: u64,
        },
        /// The observing node reconstructed a peer snapshot, verified it
        /// against the checkpoint certificate, and installed it.
        "state_transfer_completed" => StateTransferCompleted {
            /// The checkpoint epoch now installed.
            epoch: u64,
            /// Size of the reconstructed snapshot in bytes.
            bytes: u64,
        },

        /// An RBC instance entered a phase at the observing node.
        "rbc_phase_entered" => RbcPhaseEntered {
            /// Designated sender of the instance.
            origin: NodeId,
            /// `Debug`-formatted instance tag.
            tag: String,
            /// The phase entered.
            phase: RbcPhase,
        },
        /// An RBC quorum was reached at the observing node.
        "rbc_quorum_reached" => RbcQuorumReached {
            /// Designated sender of the instance.
            origin: NodeId,
            /// `Debug`-formatted instance tag.
            tag: String,
            /// Which quorum: `Echo` (echo threshold) or `Ready`
            /// (`f + 1` amplification).
            phase: RbcPhase,
            /// Number of distinct supporters counted.
            support: u64,
        },
        /// An RBC instance reliably delivered its payload (`2f + 1` Readys).
        "rbc_delivered" => RbcDelivered {
            /// Designated sender of the instance.
            origin: NodeId,
            /// `Debug`-formatted instance tag.
            tag: String,
            /// Number of distinct Ready supporters at delivery.
            support: u64,
        },
        /// A coded-RBC fragment was checked against its commitment at the
        /// observing node (`verified` records the outcome).
        "rbc_fragment" => RbcFragment {
            /// Designated sender of the instance.
            origin: NodeId,
            /// `Debug`-formatted instance tag.
            tag: String,
            /// The fragment's codeword index.
            index: u64,
            /// Whether the inclusion proof checked out.
            verified: bool,
        },
        /// A coded-RBC instance decoded its payload from `fragments` verified
        /// fragments. `consistent` is false when the re-encode check exposed a
        /// Byzantine sender committing to a non-codeword (all correct nodes
        /// then deliver the canonical empty fallback).
        "rbc_reconstructed" => RbcReconstructed {
            /// Designated sender of the instance.
            origin: NodeId,
            /// `Debug`-formatted instance tag.
            tag: String,
            /// Verified fragments available at reconstruction.
            fragments: u64,
            /// Byte length of the decoded payload.
            bytes: u64,
            /// Shards whose commitment leaf the codeword check recomputed by
            /// hashing rather than reused from fragment verification (0 when
            /// the decode failed).
            hashed_shards: u64,
            /// Whether the decoded payload re-encoded to the commitment.
            consistent: bool,
        },

        /// The observing node started a consensus round.
        "round_started" => RoundStarted {
            /// The 1-based round number.
            round: u64,
        },
        /// The observing node finished a consensus round.
        "round_completed" => RoundCompleted {
            /// The 1-based round number.
            round: u64,
        },
        /// The observing node entered a step of the current round.
        "step_entered" => StepEntered {
            /// The 1-based round number.
            round: u64,
            /// The step entered.
            step: Step,
        },
        /// The observing node collected its `n − f` quorum for a step.
        "quorum_reached" => QuorumReached {
            /// The 1-based round number.
            round: u64,
            /// The step whose quorum filled.
            step: Step,
            /// Validated messages available when the quorum filled.
            support: u64,
        },
        /// A reliably-delivered payload passed Bracha validation.
        "message_validated" => MessageValidated {
            /// The originating node (RBC designated sender).
            origin: NodeId,
            /// The 1-based round number.
            round: u64,
            /// The payload's step.
            step: Step,
            /// The carried value.
            value: Value,
            /// Whether the payload was a D-flagged Ready.
            flagged: bool,
        },
        /// A delivered payload was rejected before validation bookkeeping.
        "message_rejected" => MessageRejected {
            /// The originating node.
            origin: NodeId,
            /// The 1-based round number.
            round: u64,
            /// Why the payload was rejected.
            reason: &'static str,
        },
        /// The observing node flipped its coin at the end of a round.
        "coin_flipped" => CoinFlipped {
            /// The 1-based round number.
            round: u64,
            /// The flip outcome adopted as the next estimate.
            value: Value,
            /// The coin scheme label (e.g. `"local"`, `"common"`).
            scheme: &'static str,
        },
        /// The observing node locked a value (D-flag in the Echo step, or an
        /// `f + 1` Ready adoption).
        "value_locked" => ValueLocked {
            /// The 1-based round number.
            round: u64,
            /// The locked value.
            value: Value,
            /// Supporting message count behind the lock.
            support: u64,
        },
        /// The observing node decided. Emitted at most once per node.
        "decided" => Decided {
            /// The decision round.
            round: u64,
            /// The decided value.
            value: Value,
        },
        /// A causal-tracing span opened at the observing node: `phase` of
        /// trace `trace` started now. Span ids are derived deterministically
        /// (see `bft_obs::trace`), so same-seed sim runs emit identical ids.
        "span_start" => SpanStart {
            /// The owning trace id.
            trace: u64,
            /// This span's id.
            span: u64,
            /// The enclosing span's id (0 for the trace root).
            parent: u64,
            /// The phase this span measures.
            phase: TracePhase,
        },
        /// The matching close of a [`Event::SpanStart`].
        "span_end" => SpanEnd {
            /// The owning trace id.
            trace: u64,
            /// The span being closed.
            span: u64,
        },
        /// A protocol invariant failed at the observing node — a state the
        /// quorum arguments prove unreachable was reached anyway. The node
        /// degrades gracefully instead of panicking; this event carries the
        /// typed error (`Display`-formatted) to the invariant sink.
        "invariant_violated" => InvariantViolated {
            /// The 1-based round number (0 when no round applies).
            round: u64,
            /// The `Display`-formatted `ProtocolError`.
            detail: String,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> = Event::NAMES.iter().copied().collect();
        assert_eq!(names.len(), Event::NAMES.len());
        for name in Event::NAMES {
            assert!(name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'), "{name}");
        }
    }

    #[test]
    fn json_line_shape() {
        let e = Event::Decided { round: 3, value: Value::One };
        let line = e.to_json(42, NodeId::new(2)).to_string();
        assert_eq!(line, r#"{"t":42,"node":2,"ev":"decided","round":3,"value":1}"#);
    }

    #[test]
    fn span_json_shape() {
        let e = Event::SpanStart { trace: 7, span: 9, parent: 0, phase: TracePhase::AbaRound(2) };
        let line = e.to_json(5, NodeId::new(1)).to_string();
        assert_eq!(
            line,
            r#"{"t":5,"node":1,"ev":"span_start","trace":7,"span":9,"parent":0,"phase":"aba_round","round":2}"#
        );
        let e = Event::SpanEnd { trace: 7, span: 9 };
        assert_eq!(
            e.to_json(6, NodeId::new(1)).to_string(),
            r#"{"t":6,"node":1,"ev":"span_end","trace":7,"span":9}"#
        );
    }
}
