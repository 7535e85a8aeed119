//! The protocol event taxonomy.

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

    /// The counts as named JSON fields (event line and metrics report).
    pub(crate) fn json_fields(&self) -> [(&'static str, JsonValue); 6] {
        [
            ("polls", JsonValue::U64(self.polls)),
            ("reads", JsonValue::U64(self.reads)),
            ("reads_blocked", JsonValue::U64(self.reads_blocked)),
            ("writes", JsonValue::U64(self.writes)),
            ("frames_in", JsonValue::U64(self.frames_in)),
            ("frames_out", JsonValue::U64(self.frames_out)),
        ]
    }
}

/// One protocol-level event, as observed at a single node.
///
/// Events fall into three layers:
///
/// * **Transport** — emitted by the hosts (`bft-sim::World`,
///   `bft-runtime::Runtime`): message send/delivery/drop, queue depth
///   samples, node halts.
/// * **Reliable broadcast** — emitted by `bft-rbc` instances: phase
///   transitions, echo/ready quorums, RBC delivery. The instance tag is
///   `Debug`-formatted by the generic multiplexer.
/// * **Consensus** — emitted by the protocol state machines (`bracha`
///   engine and baselines): round/step structure, validation verdicts,
///   coin flips, locks and decisions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A message was enqueued for delivery to `to`.
    MessageSent {
        /// Destination node.
        to: NodeId,
        /// Classifier kind label (`"msg"` when no classifier is installed).
        kind: &'static str,
        /// Approximate serialized bytes (0 when unclassified).
        bytes: u64,
    },
    /// A message from `from` was delivered to the observing node.
    MessageDelivered {
        /// Sending node.
        from: NodeId,
        /// Classifier kind label (`"msg"` when no classifier is installed).
        kind: &'static str,
    },
    /// A message from `from` was dropped (destination already halted).
    MessageDropped {
        /// Sending node.
        from: NodeId,
    },
    /// A periodic sample of the host's pending-delivery queue depth.
    QueueDepth {
        /// Messages currently in flight.
        depth: u64,
    },
    /// The observing node stopped participating.
    NodeHalted,

    /// A transport connection to `peer` was established and authenticated
    /// for the first time (net runtime).
    PeerConnected {
        /// The authenticated peer.
        peer: NodeId,
    },
    /// A transport connection to or from `peer` failed or closed.
    PeerDisconnected {
        /// The peer on the other end of the link.
        peer: NodeId,
        /// A stable short reason label (`"closed"`, `"write-failed"`, …).
        reason: &'static str,
    },
    /// A reconnect attempt to `peer` failed; the dialer backs off before
    /// the next attempt.
    ReconnectBackoff {
        /// The peer being redialed.
        peer: NodeId,
        /// 1-based attempt number within this reconnect episode.
        attempt: u64,
        /// Backoff delay before the next attempt, in milliseconds.
        delay_ms: u64,
    },
    /// A previously-connected link to `peer` was re-established and
    /// re-authenticated.
    PeerReconnected {
        /// The reconnected peer.
        peer: NodeId,
        /// Failed attempts before this episode succeeded.
        attempts: u64,
    },
    /// An inbound frame failed strict decoding (the connection is dropped
    /// and re-established by the dialer).
    FrameDecodeError {
        /// A stable short reason label (`"checksum"`, `"truncated"`, …).
        reason: &'static str,
    },
    /// The chaos layer dropped an outbound frame transmission attempt
    /// (the writer re-transmits after a timeout).
    FrameDropped {
        /// Destination of the frame.
        to: NodeId,
        /// Per-link sequence number of the frame.
        seq: u64,
    },
    /// An inbound frame from `from` skipped ahead of the expected per-link
    /// sequence number. Frames decoded fine — the *ordering* contract was
    /// violated, so the connection is dropped and the dialer replays.
    FrameSequenceGap {
        /// The peer whose stream jumped.
        from: NodeId,
        /// The sequence number the receiver was waiting for.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// An outbound message body exceeded the transport's frame cap and was
    /// rejected at the send boundary (never assigned a sequence number).
    PayloadRejected {
        /// The encoded body length in bytes.
        len: u64,
    },
    /// High-water mark of one directed link's replay log (frames resident
    /// at once), emitted by the writer thread at link teardown. With
    /// ack-based trimming this stays bounded by the ack cadence instead of
    /// growing with the run length.
    LinkLogPeak {
        /// The link's destination peer.
        peer: NodeId,
        /// Peak number of frames held in the log.
        frames: u64,
    },
    /// What one node's reactor did over the whole run, emitted
    /// once at exit next to its `LinkLogPeak`s.
    ReactorStats(ReactorStats),
    /// A transport worker thread panicked and poisoned shared runtime
    /// state. The runtime rides through the poison to keep the report
    /// usable, but the panic must not be silent: hung-test triage starts
    /// here (and at the matching `RuntimeReport::poisoned` flag).
    PoisonDetected {
        /// Which runtime component the panic surfaced in.
        context: &'static str,
    },

    /// The gateway accepted a client submission into the node's mempool
    /// (per-client sequence check passed, `submit` succeeded).
    GatewayAccepted {
        /// The submitting client's id.
        client: u64,
        /// The client's per-client sequence number.
        seq: u64,
    },
    /// The gateway rejected a client submission with a typed NACK.
    GatewayNacked {
        /// The submitting client's id.
        client: u64,
        /// The client's per-client sequence number.
        seq: u64,
        /// Why: `"backpressure"`, `"sequence_gap"`, or `"oversize"`.
        reason: &'static str,
    },
    /// A gateway-accepted transaction committed in the total order and
    /// the positive ack was queued back to the client.
    GatewayCommitted {
        /// The submitting client's id.
        client: u64,
        /// The client's per-client sequence number.
        seq: u64,
        /// The epoch the transaction committed in.
        epoch: u64,
    },

    /// The observing node started an ordering epoch (proposed its batch
    /// and opened the epoch's ACS instance).
    EpochStarted {
        /// The 0-based epoch number.
        epoch: u64,
    },
    /// The epoch's ACS decided: the observing node knows the epoch's
    /// committed batch set.
    EpochCommitted {
        /// The 0-based epoch number.
        epoch: u64,
        /// Proposer slots accepted into the epoch (ABA decided One).
        slots: u64,
        /// Total transactions across the accepted batches.
        txs: u64,
    },
    /// The observing node submitted its own batch into an epoch.
    BatchSubmitted {
        /// The 0-based epoch number carrying the batch.
        epoch: u64,
        /// Transactions in the batch.
        txs: u64,
        /// Total payload bytes in the batch.
        bytes: u64,
    },
    /// A committed epoch's entries were appended to the totally-ordered
    /// log (epochs append strictly in order).
    LogDelivered {
        /// The 0-based epoch number just appended.
        epoch: u64,
        /// Entries appended by this epoch.
        entries: u64,
        /// Cumulative log length after the append.
        total: u64,
    },

    /// The observing node's state machine applied one committed log slot
    /// (one `(epoch, proposer)` log entry).
    SlotApplied {
        /// The epoch the slot was committed in.
        epoch: u64,
        /// The node that proposed the batch carrying the slot.
        proposer: NodeId,
        /// Payload bytes of the applied transaction.
        bytes: u64,
    },
    /// The observing node reached a checkpoint boundary and RBC-broadcast
    /// its state hash for agreement.
    CheckpointProposed {
        /// The checkpoint epoch (state covers epochs `0..epoch`).
        epoch: u64,
        /// The FNV state hash over the canonical snapshot.
        hash: u64,
    },
    /// The observing node collected a `2f + 1`-matching checkpoint
    /// certificate: that many distinct nodes RBC-delivered the same state
    /// hash for the epoch, so older snapshots can be dropped and a peer
    /// behind it can catch up by fetching this one.
    CheckpointCertified {
        /// The certified checkpoint epoch.
        epoch: u64,
        /// The agreed state hash.
        hash: u64,
        /// Distinct nodes whose delivered hash matched.
        support: u64,
    },
    /// The observing node fell behind a certified checkpoint and began
    /// fetching the snapshot from its peers in erasure-coded chunks.
    StateTransferStarted {
        /// The checkpoint epoch being fetched.
        epoch: u64,
    },
    /// The observing node reconstructed a peer snapshot, verified it
    /// against the checkpoint certificate, and installed it.
    StateTransferCompleted {
        /// The checkpoint epoch now installed.
        epoch: u64,
        /// Size of the reconstructed snapshot in bytes.
        bytes: u64,
    },

    /// An RBC instance entered a phase at the observing node.
    RbcPhaseEntered {
        /// Designated sender of the instance.
        origin: NodeId,
        /// `Debug`-formatted instance tag.
        tag: String,
        /// The phase entered.
        phase: RbcPhase,
    },
    /// An RBC quorum was reached at the observing node.
    RbcQuorumReached {
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
    RbcDelivered {
        /// Designated sender of the instance.
        origin: NodeId,
        /// `Debug`-formatted instance tag.
        tag: String,
        /// Number of distinct Ready supporters at delivery.
        support: u64,
    },
    /// A coded-RBC fragment was checked against its commitment at the
    /// observing node (`verified` records the outcome).
    RbcFragment {
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
    RbcReconstructed {
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
    RoundStarted {
        /// The 1-based round number.
        round: u64,
    },
    /// The observing node finished a consensus round.
    RoundCompleted {
        /// The 1-based round number.
        round: u64,
    },
    /// The observing node entered a step of the current round.
    StepEntered {
        /// The 1-based round number.
        round: u64,
        /// The step entered.
        step: Step,
    },
    /// The observing node collected its `n − f` quorum for a step.
    QuorumReached {
        /// The 1-based round number.
        round: u64,
        /// The step whose quorum filled.
        step: Step,
        /// Validated messages available when the quorum filled.
        support: u64,
    },
    /// A reliably-delivered payload passed Bracha validation.
    MessageValidated {
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
    MessageRejected {
        /// The originating node.
        origin: NodeId,
        /// The 1-based round number.
        round: u64,
        /// Why the payload was rejected.
        reason: &'static str,
    },
    /// The observing node flipped its coin at the end of a round.
    CoinFlipped {
        /// The 1-based round number.
        round: u64,
        /// The flip outcome adopted as the next estimate.
        value: Value,
        /// The coin scheme label (e.g. `"local"`, `"common"`).
        scheme: &'static str,
    },
    /// The observing node locked a value (D-flag in the Echo step, or an
    /// `f + 1` Ready adoption).
    ValueLocked {
        /// The 1-based round number.
        round: u64,
        /// The locked value.
        value: Value,
        /// Supporting message count behind the lock.
        support: u64,
    },
    /// The observing node decided. Emitted at most once per node.
    Decided {
        /// The decision round.
        round: u64,
        /// The decided value.
        value: Value,
    },
    /// A causal-tracing span opened at the observing node: `phase` of
    /// trace `trace` started now. Span ids are derived deterministically
    /// (see `bft_obs::trace`), so same-seed sim runs emit identical ids.
    SpanStart {
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
    SpanEnd {
        /// The owning trace id.
        trace: u64,
        /// The span being closed.
        span: u64,
    },
    /// A protocol invariant failed at the observing node — a state the
    /// quorum arguments prove unreachable was reached anyway. The node
    /// degrades gracefully instead of panicking; this event carries the
    /// typed error (`Display`-formatted) to the invariant sink.
    InvariantViolated {
        /// The 1-based round number (0 when no round applies).
        round: u64,
        /// The `Display`-formatted `ProtocolError`.
        detail: String,
    },
}

impl Event {
    /// A stable snake_case name for the event variant (the `ev` field of
    /// the JSONL schema).
    pub const fn name(&self) -> &'static str {
        match self {
            Event::MessageSent { .. } => "message_sent",
            Event::MessageDelivered { .. } => "message_delivered",
            Event::MessageDropped { .. } => "message_dropped",
            Event::QueueDepth { .. } => "queue_depth",
            Event::NodeHalted => "node_halted",
            Event::PeerConnected { .. } => "peer_connected",
            Event::PeerDisconnected { .. } => "peer_disconnected",
            Event::ReconnectBackoff { .. } => "reconnect_backoff",
            Event::PeerReconnected { .. } => "peer_reconnected",
            Event::FrameDecodeError { .. } => "frame_decode_error",
            Event::FrameDropped { .. } => "frame_dropped",
            Event::FrameSequenceGap { .. } => "frame_sequence_gap",
            Event::PayloadRejected { .. } => "payload_rejected",
            Event::LinkLogPeak { .. } => "link_log_peak",
            Event::ReactorStats(_) => "reactor_stats",
            Event::PoisonDetected { .. } => "poison_detected",
            Event::GatewayAccepted { .. } => "gateway_accepted",
            Event::GatewayNacked { .. } => "gateway_nacked",
            Event::GatewayCommitted { .. } => "gateway_committed",
            Event::EpochStarted { .. } => "epoch_started",
            Event::EpochCommitted { .. } => "epoch_committed",
            Event::BatchSubmitted { .. } => "batch_submitted",
            Event::LogDelivered { .. } => "log_delivered",
            Event::SlotApplied { .. } => "slot_applied",
            Event::CheckpointProposed { .. } => "checkpoint_proposed",
            Event::CheckpointCertified { .. } => "checkpoint_certified",
            Event::StateTransferStarted { .. } => "state_transfer_started",
            Event::StateTransferCompleted { .. } => "state_transfer_completed",
            Event::RbcPhaseEntered { .. } => "rbc_phase_entered",
            Event::RbcQuorumReached { .. } => "rbc_quorum_reached",
            Event::RbcDelivered { .. } => "rbc_delivered",
            Event::RbcFragment { .. } => "rbc_fragment",
            Event::RbcReconstructed { .. } => "rbc_reconstructed",
            Event::RoundStarted { .. } => "round_started",
            Event::RoundCompleted { .. } => "round_completed",
            Event::StepEntered { .. } => "step_entered",
            Event::QuorumReached { .. } => "quorum_reached",
            Event::MessageValidated { .. } => "message_validated",
            Event::MessageRejected { .. } => "message_rejected",
            Event::CoinFlipped { .. } => "coin_flipped",
            Event::ValueLocked { .. } => "value_locked",
            Event::Decided { .. } => "decided",
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
            Event::InvariantViolated { .. } => "invariant_violated",
        }
    }

    /// Serializes the event (with its timestamp and observing node) as one
    /// JSON object — the JSONL exporter's line format.
    pub fn to_json(&self, at: u64, node: NodeId) -> JsonValue {
        let mut obj = vec![
            ("t".to_string(), JsonValue::U64(at)),
            ("node".to_string(), JsonValue::U64(node.index() as u64)),
            ("ev".to_string(), JsonValue::str(self.name())),
        ];
        let mut field = |k: &str, v: JsonValue| obj.push((k.to_string(), v));
        match self {
            Event::MessageSent { to, kind, bytes } => {
                field("to", JsonValue::U64(to.index() as u64));
                field("kind", JsonValue::str(*kind));
                field("bytes", JsonValue::U64(*bytes));
            }
            Event::MessageDelivered { from, kind } => {
                field("from", JsonValue::U64(from.index() as u64));
                field("kind", JsonValue::str(*kind));
            }
            Event::MessageDropped { from } => {
                field("from", JsonValue::U64(from.index() as u64));
            }
            Event::QueueDepth { depth } => field("depth", JsonValue::U64(*depth)),
            Event::NodeHalted => {}
            Event::PeerConnected { peer } => {
                field("peer", JsonValue::U64(peer.index() as u64));
            }
            Event::PeerDisconnected { peer, reason } => {
                field("peer", JsonValue::U64(peer.index() as u64));
                field("reason", JsonValue::str(*reason));
            }
            Event::ReconnectBackoff { peer, attempt, delay_ms } => {
                field("peer", JsonValue::U64(peer.index() as u64));
                field("attempt", JsonValue::U64(*attempt));
                field("delay_ms", JsonValue::U64(*delay_ms));
            }
            Event::PeerReconnected { peer, attempts } => {
                field("peer", JsonValue::U64(peer.index() as u64));
                field("attempts", JsonValue::U64(*attempts));
            }
            Event::FrameDecodeError { reason } => {
                field("reason", JsonValue::str(*reason));
            }
            Event::FrameDropped { to, seq } => {
                field("to", JsonValue::U64(to.index() as u64));
                field("seq", JsonValue::U64(*seq));
            }
            Event::FrameSequenceGap { from, expected, got } => {
                field("from", JsonValue::U64(from.index() as u64));
                field("expected", JsonValue::U64(*expected));
                field("got", JsonValue::U64(*got));
            }
            Event::PayloadRejected { len } => {
                field("len", JsonValue::U64(*len));
            }
            Event::LinkLogPeak { peer, frames } => {
                field("peer", JsonValue::U64(peer.index() as u64));
                field("frames", JsonValue::U64(*frames));
            }
            Event::ReactorStats(stats) => {
                for (key, value) in stats.json_fields() {
                    field(key, value);
                }
            }
            Event::PoisonDetected { context } => {
                field("context", JsonValue::str(*context));
            }
            Event::GatewayAccepted { client, seq } => {
                field("client", JsonValue::U64(*client));
                field("seq", JsonValue::U64(*seq));
            }
            Event::GatewayNacked { client, seq, reason } => {
                field("client", JsonValue::U64(*client));
                field("seq", JsonValue::U64(*seq));
                field("reason", JsonValue::str(*reason));
            }
            Event::GatewayCommitted { client, seq, epoch } => {
                field("client", JsonValue::U64(*client));
                field("seq", JsonValue::U64(*seq));
                field("epoch", JsonValue::U64(*epoch));
            }
            Event::EpochStarted { epoch } => {
                field("epoch", JsonValue::U64(*epoch));
            }
            Event::EpochCommitted { epoch, slots, txs } => {
                field("epoch", JsonValue::U64(*epoch));
                field("slots", JsonValue::U64(*slots));
                field("txs", JsonValue::U64(*txs));
            }
            Event::BatchSubmitted { epoch, txs, bytes } => {
                field("epoch", JsonValue::U64(*epoch));
                field("txs", JsonValue::U64(*txs));
                field("bytes", JsonValue::U64(*bytes));
            }
            Event::LogDelivered { epoch, entries, total } => {
                field("epoch", JsonValue::U64(*epoch));
                field("entries", JsonValue::U64(*entries));
                field("total", JsonValue::U64(*total));
            }
            Event::SlotApplied { epoch, proposer, bytes } => {
                field("epoch", JsonValue::U64(*epoch));
                field("proposer", JsonValue::U64(proposer.index() as u64));
                field("bytes", JsonValue::U64(*bytes));
            }
            Event::CheckpointProposed { epoch, hash } => {
                field("epoch", JsonValue::U64(*epoch));
                field("hash", JsonValue::U64(*hash));
            }
            Event::CheckpointCertified { epoch, hash, support } => {
                field("epoch", JsonValue::U64(*epoch));
                field("hash", JsonValue::U64(*hash));
                field("support", JsonValue::U64(*support));
            }
            Event::StateTransferStarted { epoch } => {
                field("epoch", JsonValue::U64(*epoch));
            }
            Event::StateTransferCompleted { epoch, bytes } => {
                field("epoch", JsonValue::U64(*epoch));
                field("bytes", JsonValue::U64(*bytes));
            }
            Event::RbcPhaseEntered { origin, tag, phase } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("tag", JsonValue::str(tag));
                field("phase", JsonValue::str(phase.label()));
            }
            Event::RbcQuorumReached { origin, tag, phase, support } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("tag", JsonValue::str(tag));
                field("phase", JsonValue::str(phase.label()));
                field("support", JsonValue::U64(*support));
            }
            Event::RbcDelivered { origin, tag, support } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("tag", JsonValue::str(tag));
                field("support", JsonValue::U64(*support));
            }
            Event::RbcFragment { origin, tag, index, verified } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("tag", JsonValue::str(tag));
                field("index", JsonValue::U64(*index));
                field("verified", JsonValue::Bool(*verified));
            }
            Event::RbcReconstructed {
                origin,
                tag,
                fragments,
                bytes,
                hashed_shards,
                consistent,
            } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("tag", JsonValue::str(tag));
                field("fragments", JsonValue::U64(*fragments));
                field("bytes", JsonValue::U64(*bytes));
                field("hashed_shards", JsonValue::U64(*hashed_shards));
                field("consistent", JsonValue::Bool(*consistent));
            }
            Event::RoundStarted { round } | Event::RoundCompleted { round } => {
                field("round", JsonValue::U64(*round));
            }
            Event::StepEntered { round, step } => {
                field("round", JsonValue::U64(*round));
                field("step", JsonValue::str(step.to_string()));
            }
            Event::QuorumReached { round, step, support } => {
                field("round", JsonValue::U64(*round));
                field("step", JsonValue::str(step.to_string()));
                field("support", JsonValue::U64(*support));
            }
            Event::MessageValidated { origin, round, step, value, flagged } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("round", JsonValue::U64(*round));
                field("step", JsonValue::str(step.to_string()));
                field("value", JsonValue::U64(value.index() as u64));
                field("flagged", JsonValue::Bool(*flagged));
            }
            Event::MessageRejected { origin, round, reason } => {
                field("origin", JsonValue::U64(origin.index() as u64));
                field("round", JsonValue::U64(*round));
                field("reason", JsonValue::str(*reason));
            }
            Event::CoinFlipped { round, value, scheme } => {
                field("round", JsonValue::U64(*round));
                field("value", JsonValue::U64(value.index() as u64));
                field("scheme", JsonValue::str(*scheme));
            }
            Event::ValueLocked { round, value, support } => {
                field("round", JsonValue::U64(*round));
                field("value", JsonValue::U64(value.index() as u64));
                field("support", JsonValue::U64(*support));
            }
            Event::Decided { round, value } => {
                field("round", JsonValue::U64(*round));
                field("value", JsonValue::U64(value.index() as u64));
            }
            Event::SpanStart { trace, span, parent, phase } => {
                field("trace", JsonValue::U64(*trace));
                field("span", JsonValue::U64(*span));
                field("parent", JsonValue::U64(*parent));
                field("phase", JsonValue::str(phase.name()));
                if phase.round() > 0 {
                    field("round", JsonValue::U64(phase.round()));
                }
            }
            Event::SpanEnd { trace, span } => {
                field("trace", JsonValue::U64(*trace));
                field("span", JsonValue::U64(*span));
            }
            Event::InvariantViolated { round, detail } => {
                field("round", JsonValue::U64(*round));
                field("detail", JsonValue::str(detail));
            }
        }
        JsonValue::Obj(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let events = [
            Event::MessageSent { to: NodeId::new(0), kind: "x", bytes: 1 },
            Event::MessageDelivered { from: NodeId::new(0), kind: "x" },
            Event::MessageDropped { from: NodeId::new(0) },
            Event::QueueDepth { depth: 0 },
            Event::NodeHalted,
            Event::RoundStarted { round: 1 },
            Event::RoundCompleted { round: 1 },
            Event::StepEntered { round: 1, step: Step::Initial },
            Event::QuorumReached { round: 1, step: Step::Initial, support: 3 },
            Event::CoinFlipped { round: 1, value: Value::One, scheme: "local" },
            Event::ValueLocked { round: 1, value: Value::One, support: 3 },
            Event::Decided { round: 1, value: Value::One },
            Event::FrameSequenceGap { from: NodeId::new(0), expected: 1, got: 3 },
            Event::PayloadRejected { len: 9 },
            Event::LinkLogPeak { peer: NodeId::new(0), frames: 17 },
            Event::ReactorStats(ReactorStats::default()),
            Event::PoisonDetected { context: "writer" },
            Event::GatewayAccepted { client: 7, seq: 1 },
            Event::GatewayNacked { client: 7, seq: 2, reason: "backpressure" },
            Event::GatewayCommitted { client: 7, seq: 1, epoch: 0 },
            Event::EpochStarted { epoch: 0 },
            Event::EpochCommitted { epoch: 0, slots: 3, txs: 12 },
            Event::BatchSubmitted { epoch: 0, txs: 4, bytes: 64 },
            Event::LogDelivered { epoch: 0, entries: 12, total: 12 },
            Event::SlotApplied { epoch: 0, proposer: NodeId::new(1), bytes: 16 },
            Event::CheckpointProposed { epoch: 4, hash: 7 },
            Event::CheckpointCertified { epoch: 4, hash: 7, support: 3 },
            Event::StateTransferStarted { epoch: 4 },
            Event::StateTransferCompleted { epoch: 4, bytes: 128 },
            Event::RbcFragment {
                origin: NodeId::new(0),
                tag: String::new(),
                index: 1,
                verified: true,
            },
            Event::RbcReconstructed {
                origin: NodeId::new(0),
                tag: String::new(),
                fragments: 2,
                bytes: 64,
                hashed_shards: 2,
                consistent: true,
            },
            Event::SpanStart { trace: 1, span: 2, parent: 0, phase: TracePhase::Submit },
            Event::SpanEnd { trace: 1, span: 2 },
        ];
        let names: std::collections::HashSet<&str> = events.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), events.len());
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
