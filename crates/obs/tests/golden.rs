//! Byte-for-byte pins of what the sinks write: one fixed stream carrying
//! every `Event` variant, in declaration order, rendered as JSONL lines
//! and as the Prometheus snapshot of its aggregate.

use bft_obs::{Event, JsonlSink, MetricsSink, RbcPhase, ReactorStats, Sink, TracePhase};
use bft_types::{NodeId, Step, Value};

/// Every variant once, in declaration order, at `t = 10, 20, …`.
fn stream() -> Vec<(u64, NodeId, Event)> {
    let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    let tag = || "Batch(0)".to_string();
    let events = vec![
        (n0, Event::MessageSent { to: n1, kind: "send/initial", bytes: 16 }),
        (n1, Event::MessageDelivered { from: n0, kind: "send/initial" }),
        (n1, Event::MessageDropped { from: n2 }),
        (n0, Event::QueueDepth { depth: 9 }),
        (n2, Event::NodeHalted),
        (n0, Event::PeerConnected { peer: n1 }),
        (n0, Event::PeerDisconnected { peer: n1, reason: "closed" }),
        (n0, Event::ReconnectBackoff { peer: n1, attempt: 2, delay_ms: 40 }),
        (n0, Event::PeerReconnected { peer: n1, attempts: 2 }),
        (n1, Event::FrameDecodeError { reason: "checksum" }),
        (n1, Event::FrameSequenceGap { from: n2, expected: 5, got: 7 }),
        (n0, Event::PayloadRejected { len: 9_000_000 }),
        (n0, Event::LinkLogPeak { peer: n1, frames: 33 }),
        (
            n0,
            Event::ReactorStats {
                stats: ReactorStats {
                    polls: 100,
                    reads: 80,
                    reads_blocked: 3,
                    writes: 20,
                    frames_in: 150,
                    frames_out: 90,
                },
            },
        ),
        (n1, Event::PoisonDetected { context: "writer" }),
        (n0, Event::GatewayAccepted { client: 7, seq: 1 }),
        (n0, Event::GatewayNacked { client: 7, seq: 2, reason: "backpressure" }),
        (n0, Event::GatewayCommitted { client: 7, seq: 1, epoch: 0 }),
        (n0, Event::EpochStarted { epoch: 0 }),
        (n0, Event::EpochCommitted { epoch: 0, slots: 3, txs: 12 }),
        (n0, Event::BatchSubmitted { epoch: 0, txs: 4, bytes: 64 }),
        (n0, Event::LogDelivered { epoch: 0, entries: 12, total: 12 }),
        (n0, Event::SlotApplied { epoch: 0, proposer: n1, bytes: 16 }),
        (n0, Event::CheckpointProposed { epoch: 4, hash: 65261 }),
        (n0, Event::CheckpointCertified { epoch: 4, hash: 65261, support: 3 }),
        (n2, Event::StateTransferStarted { epoch: 4 }),
        (n2, Event::StateTransferCompleted { epoch: 4, bytes: 128 }),
        (n0, Event::RbcPhaseEntered { origin: n1, tag: tag(), phase: RbcPhase::Echo }),
        (
            n0,
            Event::RbcQuorumReached { origin: n1, tag: tag(), phase: RbcPhase::Ready, support: 3 },
        ),
        (n0, Event::RbcDelivered { origin: n1, tag: tag(), support: 3 }),
        (n0, Event::RbcFragment { origin: n1, tag: tag(), index: 2, verified: true }),
        (
            n0,
            Event::RbcReconstructed {
                origin: n1,
                tag: tag(),
                fragments: 3,
                bytes: 64,
                hashed_shards: 2,
                consistent: true,
            },
        ),
        (n0, Event::RoundStarted { round: 1 }),
        (n0, Event::RoundCompleted { round: 1 }),
        (n0, Event::StepEntered { round: 2, step: Step::Echo }),
        (n0, Event::QuorumReached { round: 2, step: Step::Echo, support: 3 }),
        (
            n0,
            Event::MessageValidated {
                origin: n2,
                round: 2,
                step: Step::Ready,
                value: Value::One,
                flagged: true,
            },
        ),
        (n0, Event::MessageRejected { origin: n2, round: 2, reason: "equivocation" }),
        (n0, Event::CoinFlipped { round: 2, value: Value::Zero, scheme: "local" }),
        (n0, Event::ValueLocked { round: 2, value: Value::Zero, support: 3 }),
        (n0, Event::Decided { round: 2, value: Value::Zero }),
        (n0, Event::SpanStart { trace: 7, span: 9, parent: 0, phase: TracePhase::AbaRound(2) }),
        (n0, Event::SpanEnd { trace: 7, span: 9 }),
        (n0, Event::InvariantViolated { round: 2, detail: "two \"Ready\" values".to_string() }),
    ];
    events.into_iter().enumerate().map(|(i, (node, ev))| (10 * (i as u64 + 1), node, ev)).collect()
}

#[test]
fn stream_covers_every_variant_once() {
    let names: Vec<&str> = stream().iter().map(|(_, _, ev)| ev.name()).collect();
    assert_eq!(names, Event::NAMES, "one event per generated name, in order");
}

#[test]
fn jsonl_lines_are_pinned() {
    let mut sink = JsonlSink::new(Vec::new());
    for (at, node, ev) in stream() {
        sink.on_event(at, node, &ev);
    }
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(text.lines().count(), JSONL.lines().count());
    for (got, want) in text.lines().zip(JSONL.lines()) {
        assert_eq!(got, want);
    }
}

#[test]
fn prometheus_snapshot_is_pinned() {
    let mut sink = MetricsSink::new();
    for (at, node, ev) in stream() {
        sink.on_event(at, node, &ev);
    }
    let text = sink.render_prometheus();
    for (got, want) in text.lines().zip(PROMETHEUS.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(text, PROMETHEUS);
}

/// One line per event of [`stream`].
const JSONL: &str = r#"{"t":10,"node":0,"ev":"message_sent","to":1,"kind":"send/initial","bytes":16}
{"t":20,"node":1,"ev":"message_delivered","from":0,"kind":"send/initial"}
{"t":30,"node":1,"ev":"message_dropped","from":2}
{"t":40,"node":0,"ev":"queue_depth","depth":9}
{"t":50,"node":2,"ev":"node_halted"}
{"t":60,"node":0,"ev":"peer_connected","peer":1}
{"t":70,"node":0,"ev":"peer_disconnected","peer":1,"reason":"closed"}
{"t":80,"node":0,"ev":"reconnect_backoff","peer":1,"attempt":2,"delay_ms":40}
{"t":90,"node":0,"ev":"peer_reconnected","peer":1,"attempts":2}
{"t":100,"node":1,"ev":"frame_decode_error","reason":"checksum"}
{"t":110,"node":1,"ev":"frame_sequence_gap","from":2,"expected":5,"got":7}
{"t":120,"node":0,"ev":"payload_rejected","len":9000000}
{"t":130,"node":0,"ev":"link_log_peak","peer":1,"frames":33}
{"t":140,"node":0,"ev":"reactor_stats","polls":100,"reads":80,"reads_blocked":3,"writes":20,"frames_in":150,"frames_out":90}
{"t":150,"node":1,"ev":"poison_detected","context":"writer"}
{"t":160,"node":0,"ev":"gateway_accepted","client":7,"seq":1}
{"t":170,"node":0,"ev":"gateway_nacked","client":7,"seq":2,"reason":"backpressure"}
{"t":180,"node":0,"ev":"gateway_committed","client":7,"seq":1,"epoch":0}
{"t":190,"node":0,"ev":"epoch_started","epoch":0}
{"t":200,"node":0,"ev":"epoch_committed","epoch":0,"slots":3,"txs":12}
{"t":210,"node":0,"ev":"batch_submitted","epoch":0,"txs":4,"bytes":64}
{"t":220,"node":0,"ev":"log_delivered","epoch":0,"entries":12,"total":12}
{"t":230,"node":0,"ev":"slot_applied","epoch":0,"proposer":1,"bytes":16}
{"t":240,"node":0,"ev":"checkpoint_proposed","epoch":4,"hash":65261}
{"t":250,"node":0,"ev":"checkpoint_certified","epoch":4,"hash":65261,"support":3}
{"t":260,"node":2,"ev":"state_transfer_started","epoch":4}
{"t":270,"node":2,"ev":"state_transfer_completed","epoch":4,"bytes":128}
{"t":280,"node":0,"ev":"rbc_phase_entered","origin":1,"tag":"Batch(0)","phase":"echo"}
{"t":290,"node":0,"ev":"rbc_quorum_reached","origin":1,"tag":"Batch(0)","phase":"ready","support":3}
{"t":300,"node":0,"ev":"rbc_delivered","origin":1,"tag":"Batch(0)","support":3}
{"t":310,"node":0,"ev":"rbc_fragment","origin":1,"tag":"Batch(0)","index":2,"verified":true}
{"t":320,"node":0,"ev":"rbc_reconstructed","origin":1,"tag":"Batch(0)","fragments":3,"bytes":64,"hashed_shards":2,"consistent":true}
{"t":330,"node":0,"ev":"round_started","round":1}
{"t":340,"node":0,"ev":"round_completed","round":1}
{"t":350,"node":0,"ev":"step_entered","round":2,"step":"echo"}
{"t":360,"node":0,"ev":"quorum_reached","round":2,"step":"echo","support":3}
{"t":370,"node":0,"ev":"message_validated","origin":2,"round":2,"step":"ready","value":1,"flagged":true}
{"t":380,"node":0,"ev":"message_rejected","origin":2,"round":2,"reason":"equivocation"}
{"t":390,"node":0,"ev":"coin_flipped","round":2,"value":0,"scheme":"local"}
{"t":400,"node":0,"ev":"value_locked","round":2,"value":0,"support":3}
{"t":410,"node":0,"ev":"decided","round":2,"value":0}
{"t":420,"node":0,"ev":"span_start","trace":7,"span":9,"parent":0,"phase":"aba_round","round":2}
{"t":430,"node":0,"ev":"span_end","trace":7,"span":9}
{"t":440,"node":0,"ev":"invariant_violated","round":2,"detail":"two \"Ready\" values"}
"#;

/// The aggregate of [`stream`].
const PROMETHEUS: &str = r#"# HELP bft_events_total Events consumed
# TYPE bft_events_total counter
bft_events_total 44
bft_messages_total{kind="send/initial"} 1
bft_message_bytes_total{kind="send/initial"} 16
# HELP bft_delivered_total Messages delivered
# TYPE bft_delivered_total counter
bft_delivered_total 1
# HELP bft_dropped_total Messages dropped
# TYPE bft_dropped_total counter
bft_dropped_total 1
bft_validated_total{step="initial"} 0
bft_validated_total{step="echo"} 0
bft_validated_total{step="ready"} 1
# HELP bft_rejected_total Payloads rejected
# TYPE bft_rejected_total counter
bft_rejected_total 1
# HELP bft_quorums_total Step quorums reached
# TYPE bft_quorums_total counter
bft_quorums_total 1
# HELP bft_coin_flips_total Coin flips
# TYPE bft_coin_flips_total counter
bft_coin_flips_total 1
# HELP bft_value_locks_total Value locks
# TYPE bft_value_locks_total counter
bft_value_locks_total 1
# HELP bft_max_queue_depth Peak queue depth
# TYPE bft_max_queue_depth gauge
bft_max_queue_depth 9
# HELP bft_peer_connects_total Peer connects
# TYPE bft_peer_connects_total counter
bft_peer_connects_total 1
# HELP bft_peer_disconnects_total Peer disconnects
# TYPE bft_peer_disconnects_total counter
bft_peer_disconnects_total 1
# HELP bft_peer_reconnects_total Peer reconnects
# TYPE bft_peer_reconnects_total counter
bft_peer_reconnects_total 1
# HELP bft_backoff_retries_total Reconnect backoff retries
# TYPE bft_backoff_retries_total counter
bft_backoff_retries_total 1
# HELP bft_frame_decode_errors_total Inbound frame decode errors
# TYPE bft_frame_decode_errors_total counter
bft_frame_decode_errors_total 1
# HELP bft_frame_sequence_gaps_total Inbound frame sequence gaps
# TYPE bft_frame_sequence_gaps_total counter
bft_frame_sequence_gaps_total 1
# HELP bft_payloads_rejected_total Oversize outbound bodies rejected
# TYPE bft_payloads_rejected_total counter
bft_payloads_rejected_total 1
# HELP bft_peak_link_log_frames Peak frames resident in one link's replay log
# TYPE bft_peak_link_log_frames gauge
bft_peak_link_log_frames 33
# HELP bft_reactor_polls_total Reactor poll(2) calls
# TYPE bft_reactor_polls_total counter
bft_reactor_polls_total 100
# HELP bft_reactor_reads_total Reactor read(2) calls
# TYPE bft_reactor_reads_total counter
bft_reactor_reads_total 80
# HELP bft_reactor_reads_blocked_total Reactor reads that would block
# TYPE bft_reactor_reads_blocked_total counter
bft_reactor_reads_blocked_total 3
# HELP bft_reactor_writes_total Reactor write(2) calls
# TYPE bft_reactor_writes_total counter
bft_reactor_writes_total 20
# HELP bft_reactor_frames_in_total Frames decoded by reactors
# TYPE bft_reactor_frames_in_total counter
bft_reactor_frames_in_total 150
# HELP bft_reactor_frames_out_total Frames encoded by reactors
# TYPE bft_reactor_frames_out_total counter
bft_reactor_frames_out_total 90
# HELP bft_reactor_frames_per_write Mean frames per write(2)
# TYPE bft_reactor_frames_per_write gauge
bft_reactor_frames_per_write 4.5
# HELP bft_poison_detections_total Transport worker panics detected
# TYPE bft_poison_detections_total counter
bft_poison_detections_total 1
# HELP bft_epochs_started_total Epochs opened
# TYPE bft_epochs_started_total counter
bft_epochs_started_total 1
# HELP bft_epochs_committed_total Epochs committed
# TYPE bft_epochs_committed_total counter
bft_epochs_committed_total 1
# HELP bft_batches_submitted_total Batches submitted
# TYPE bft_batches_submitted_total counter
bft_batches_submitted_total 1
# HELP bft_txs_submitted_total Txs submitted
# TYPE bft_txs_submitted_total counter
bft_txs_submitted_total 4
# HELP bft_txs_delivered_total Txs ordered
# TYPE bft_txs_delivered_total counter
bft_txs_delivered_total 12
# HELP bft_gateway_accepted_total Client submissions accepted by gateways
# TYPE bft_gateway_accepted_total counter
bft_gateway_accepted_total 1
# HELP bft_gateway_nacked_total Client submissions refused with a NACK
# TYPE bft_gateway_nacked_total counter
bft_gateway_nacked_total 1
# HELP bft_gateway_committed_total Client submissions committed and acked
# TYPE bft_gateway_committed_total counter
bft_gateway_committed_total 1
# HELP bft_rbc_fragments_ok_total Coded fragments verified
# TYPE bft_rbc_fragments_ok_total counter
bft_rbc_fragments_ok_total 1
# HELP bft_rbc_fragments_rejected_total Coded fragments rejected
# TYPE bft_rbc_fragments_rejected_total counter
bft_rbc_fragments_rejected_total 0
# HELP bft_rbc_reconstructions_total Coded payload reconstructions
# TYPE bft_rbc_reconstructions_total counter
bft_rbc_reconstructions_total 1
# HELP bft_rbc_reconstruct_bytes_total Bytes recovered by reconstruction
# TYPE bft_rbc_reconstruct_bytes_total counter
bft_rbc_reconstruct_bytes_total 64
# HELP bft_rbc_hashed_shards_total Shards re-hashed by reconstruction
# TYPE bft_rbc_hashed_shards_total counter
bft_rbc_hashed_shards_total 2
# HELP bft_max_pipeline_occupancy Peak concurrently in-flight epochs
# TYPE bft_max_pipeline_occupancy gauge
bft_max_pipeline_occupancy 1
# HELP bft_slots_applied_total State-machine slots applied
# TYPE bft_slots_applied_total counter
bft_slots_applied_total 1
# HELP bft_applied_bytes_total Payload bytes applied
# TYPE bft_applied_bytes_total counter
bft_applied_bytes_total 16
# HELP bft_checkpoints_proposed_total Checkpoint hashes proposed
# TYPE bft_checkpoints_proposed_total counter
bft_checkpoints_proposed_total 1
# HELP bft_checkpoints_certified_total Checkpoint certificates collected
# TYPE bft_checkpoints_certified_total counter
bft_checkpoints_certified_total 1
# HELP bft_state_transfers_started_total Peer state transfers started
# TYPE bft_state_transfers_started_total counter
bft_state_transfers_started_total 1
# HELP bft_state_transfers_completed_total Peer state transfers completed
# TYPE bft_state_transfers_completed_total counter
bft_state_transfers_completed_total 1
# HELP bft_state_transfer_bytes_total Snapshot bytes installed by state transfer
# TYPE bft_state_transfer_bytes_total counter
bft_state_transfer_bytes_total 128
# HELP bft_decision_latency Decision timestamps across nodes
# TYPE bft_decision_latency summary
bft_decision_latency{quantile="0.5"} 410
bft_decision_latency{quantile="0.9"} 410
bft_decision_latency{quantile="0.99"} 410
bft_decision_latency_sum 410
bft_decision_latency_count 1
# HELP bft_epoch_commit_latency Epoch start-to-commit durations
# TYPE bft_epoch_commit_latency summary
bft_epoch_commit_latency{quantile="0.5"} 10
bft_epoch_commit_latency{quantile="0.9"} 10
bft_epoch_commit_latency{quantile="0.99"} 10
bft_epoch_commit_latency_sum 10
bft_epoch_commit_latency_count 1
# HELP bft_checkpoint_latency Checkpoint propose-to-certify durations
# TYPE bft_checkpoint_latency summary
bft_checkpoint_latency{quantile="0.5"} 10
bft_checkpoint_latency{quantile="0.9"} 10
bft_checkpoint_latency{quantile="0.99"} 10
bft_checkpoint_latency_sum 10
bft_checkpoint_latency_count 1
# HELP bft_pipeline_occupancy In-flight epochs at each epoch start
# TYPE bft_pipeline_occupancy summary
bft_pipeline_occupancy{quantile="0.5"} 1
bft_pipeline_occupancy{quantile="0.9"} 1
bft_pipeline_occupancy{quantile="0.99"} 1
bft_pipeline_occupancy_sum 1
bft_pipeline_occupancy_count 1
bft_round_latency{round="1",quantile="0.5"} 10
bft_round_latency{round="1",quantile="0.99"} 10
bft_round_latency_count{round="1"} 1
# HELP bft_decision_rounds Rounds to decide across nodes
# TYPE bft_decision_rounds histogram
bft_decision_rounds_bucket{le="2"} 1
bft_decision_rounds_bucket{le="+Inf"} 1
bft_decision_rounds_sum 2
bft_decision_rounds_count 1
"#;
