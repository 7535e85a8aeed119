//! Per-round / per-phase metrics aggregation.

use crate::json::JsonValue;
use crate::{Event, ReactorStats, Sink};
use bft_stats::{Histogram, Samples};
use bft_types::{NodeId, Step};
use std::collections::BTreeMap;

/// Aggregates a run's event stream into per-round and per-phase
/// statistics, built on `bft-stats`.
///
/// Tracked:
///
/// * decision latency ([`Samples`] of `Decided` timestamps) and decision
///   rounds ([`Histogram`]);
/// * per-round latency — for each round number, [`Samples`] of
///   `RoundCompleted − RoundStarted` (or `Decided − RoundStarted`)
///   across nodes;
/// * message counts and bytes by classifier kind, plus delivered /
///   dropped totals;
/// * validated-message counts per step, rejection count, quorum count,
///   coin flips, value locks;
/// * maximum observed queue depth.
#[derive(Debug, Default)]
pub struct MetricsSink {
    decide_times: Samples,
    decide_rounds: Histogram,
    round_latency: BTreeMap<u64, Samples>,
    open_rounds: BTreeMap<(NodeId, u64), u64>,
    msgs_by_kind: BTreeMap<&'static str, (u64, u64)>,
    delivered: u64,
    dropped: u64,
    validated_by_step: [u64; 3],
    rejected: u64,
    quorums: u64,
    coin_flips: u64,
    locks: u64,
    max_queue_depth: u64,
    events_total: u64,
    peer_connects: u64,
    peer_disconnects: u64,
    peer_reconnects: u64,
    backoff_retries: u64,
    frame_decode_errors: u64,
    frame_sequence_gaps: u64,
    payloads_rejected: u64,
    peak_link_log: u64,
    reactor: ReactorStats,
    chaos_frames_dropped: u64,
    epochs_started: u64,
    epochs_committed: u64,
    batches_submitted: u64,
    txs_submitted: u64,
    txs_delivered: u64,
    rbc_fragments_ok: u64,
    rbc_fragments_rejected: u64,
    rbc_reconstructions: u64,
    rbc_reconstruct_bytes: u64,
    rbc_hashed_shards: u64,
    epoch_commit_latency: Samples,
    open_epochs: BTreeMap<(NodeId, u64), u64>,
    inflight_epochs: BTreeMap<NodeId, u64>,
    occupancy: Samples,
    max_pipeline_occupancy: u64,
    slots_applied: u64,
    applied_bytes: u64,
    checkpoints_proposed: u64,
    checkpoints_certified: u64,
    checkpoint_latency: Samples,
    open_checkpoints: BTreeMap<(NodeId, u64), u64>,
    state_transfers_started: u64,
    state_transfers_completed: u64,
    state_transfer_bytes: u64,
    poison_detections: u64,
    gateway_accepted: u64,
    gateway_nacked: u64,
    gateway_committed: u64,
}

impl MetricsSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decision timestamps, one sample per decided node.
    pub fn decide_times(&self) -> &Samples {
        &self.decide_times
    }

    /// Decision rounds across nodes.
    pub fn decide_rounds(&self) -> &Histogram {
        &self.decide_rounds
    }

    /// Per-round latency samples (round number → durations across nodes).
    pub fn round_latency(&self) -> &BTreeMap<u64, Samples> {
        &self.round_latency
    }

    /// Message count and byte totals keyed by classifier kind.
    pub fn msgs_by_kind(&self) -> &BTreeMap<&'static str, (u64, u64)> {
        &self.msgs_by_kind
    }

    /// Messages delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped (halted destinations).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Validated-message counts indexed by [`Step::index`].
    pub fn validated_by_step(&self) -> [u64; 3] {
        self.validated_by_step
    }

    /// Payloads rejected before validation.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Step quorums observed.
    pub fn quorums(&self) -> u64 {
        self.quorums
    }

    /// Coin flips observed.
    pub fn coin_flips(&self) -> u64 {
        self.coin_flips
    }

    /// Value locks observed.
    pub fn locks(&self) -> u64 {
        self.locks
    }

    /// Highest queue-depth sample seen.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth
    }

    /// Total events consumed.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// First-time transport connections authenticated (net runtime).
    pub fn peer_connects(&self) -> u64 {
        self.peer_connects
    }

    /// Transport connections lost (closed, write failure, decode drop).
    pub fn peer_disconnects(&self) -> u64 {
        self.peer_disconnects
    }

    /// Links re-established after a disconnect.
    pub fn peer_reconnects(&self) -> u64 {
        self.peer_reconnects
    }

    /// Failed dial attempts that entered a backoff wait.
    pub fn backoff_retries(&self) -> u64 {
        self.backoff_retries
    }

    /// Inbound frames rejected by the strict decoder.
    pub fn frame_decode_errors(&self) -> u64 {
        self.frame_decode_errors
    }

    /// Inbound frames that skipped ahead of the expected sequence number
    /// (transport-ordering faults; the connection is dropped and replayed).
    pub fn frame_sequence_gaps(&self) -> u64 {
        self.frame_sequence_gaps
    }

    /// Outbound bodies rejected at the send boundary for exceeding the
    /// frame cap.
    pub fn payloads_rejected(&self) -> u64 {
        self.payloads_rejected
    }

    /// High-water mark of any directed link's replay log, in frames.
    pub fn peak_link_log(&self) -> u64 {
        self.peak_link_log
    }

    /// Reactor syscall and frame counts, summed over the nodes that
    /// reported them.
    pub fn reactor(&self) -> ReactorStats {
        self.reactor
    }

    /// Outbound frame transmissions dropped by the chaos layer.
    pub fn chaos_frames_dropped(&self) -> u64 {
        self.chaos_frames_dropped
    }

    /// Ordering epochs opened across nodes.
    pub fn epochs_started(&self) -> u64 {
        self.epochs_started
    }

    /// Ordering epochs whose ACS decided across nodes.
    pub fn epochs_committed(&self) -> u64 {
        self.epochs_committed
    }

    /// Own batches proposed into epochs across nodes.
    pub fn batches_submitted(&self) -> u64 {
        self.batches_submitted
    }

    /// Transactions carried by submitted batches across nodes.
    pub fn txs_submitted(&self) -> u64 {
        self.txs_submitted
    }

    /// Transactions appended to totally-ordered logs across nodes.
    pub fn txs_delivered(&self) -> u64 {
        self.txs_delivered
    }

    /// Erasure-coded fragments that passed commitment verification.
    pub fn rbc_fragments_ok(&self) -> u64 {
        self.rbc_fragments_ok
    }

    /// Erasure-coded fragments rejected (bad proof, wrong index, dup).
    pub fn rbc_fragments_rejected(&self) -> u64 {
        self.rbc_fragments_rejected
    }

    /// Payload reconstructions attempted by the coded broadcast.
    pub fn rbc_reconstructions(&self) -> u64 {
        self.rbc_reconstructions
    }

    /// Bytes recovered by successful reconstructions.
    pub fn rbc_reconstruct_bytes(&self) -> u64 {
        self.rbc_reconstruct_bytes
    }

    /// Shards re-hashed by reconstructions' codeword checks (the rest of
    /// each codeword's `n` leaves were reused from fragment verification).
    pub fn rbc_hashed_shards(&self) -> u64 {
        self.rbc_hashed_shards
    }

    /// `EpochCommitted − EpochStarted` durations, one sample per
    /// `(node, epoch)` pair that committed.
    pub fn epoch_commit_latency(&self) -> &Samples {
        &self.epoch_commit_latency
    }

    /// Pipeline occupancy samples (in-flight epochs at each epoch start).
    pub fn pipeline_occupancy(&self) -> &Samples {
        &self.occupancy
    }

    /// Highest number of concurrently in-flight epochs seen at one node.
    pub fn max_pipeline_occupancy(&self) -> u64 {
        self.max_pipeline_occupancy
    }

    /// Log slots applied by replicated state machines across nodes.
    pub fn slots_applied(&self) -> u64 {
        self.slots_applied
    }

    /// Payload bytes of applied slots across nodes.
    pub fn applied_bytes(&self) -> u64 {
        self.applied_bytes
    }

    /// Checkpoint state hashes proposed (RBC-broadcast) across nodes.
    pub fn checkpoints_proposed(&self) -> u64 {
        self.checkpoints_proposed
    }

    /// Checkpoint certificates collected (`2f + 1` matching hashes)
    /// across nodes.
    pub fn checkpoints_certified(&self) -> u64 {
        self.checkpoints_certified
    }

    /// `CheckpointCertified − CheckpointProposed` durations, one sample
    /// per `(node, epoch)` pair that certified.
    pub fn checkpoint_latency(&self) -> &Samples {
        &self.checkpoint_latency
    }

    /// Peer state transfers initiated (catch-up fetches) across nodes.
    pub fn state_transfers_started(&self) -> u64 {
        self.state_transfers_started
    }

    /// Peer state transfers that reconstructed, verified and installed a
    /// snapshot.
    pub fn state_transfers_completed(&self) -> u64 {
        self.state_transfers_completed
    }

    /// Snapshot bytes installed by completed state transfers.
    pub fn state_transfer_bytes(&self) -> u64 {
        self.state_transfer_bytes
    }

    /// Transport worker panics detected by the runtime's supervision
    /// (each also sets `RuntimeReport::poisoned`).
    pub fn poison_detections(&self) -> u64 {
        self.poison_detections
    }

    /// Client submissions the gateway accepted into mempools.
    pub fn gateway_accepted(&self) -> u64 {
        self.gateway_accepted
    }

    /// Client submissions the gateway rejected with a typed NACK.
    pub fn gateway_nacked(&self) -> u64 {
        self.gateway_nacked
    }

    /// Gateway-accepted transactions that committed and were acked.
    pub fn gateway_committed(&self) -> u64 {
        self.gateway_committed
    }

    /// Folds another aggregate into this one.
    ///
    /// This is the deterministic multi-run combiner behind the `absim` and
    /// `abnet` exit totals (`--runs`, `--metrics-out`): each run feeds its
    /// own `MetricsSink`, and the per-run sinks are merged **in run order**,
    /// so the total equals one sink fed every run's events in sequence
    /// (pinned by a test). Sample sequences are appended in merge-call order,
    /// histograms and counters are summed, and gauge-style maxima take the
    /// pointwise max. `other`'s still-open rounds are discarded: a round
    /// that never completed within its own run has no latency sample, and
    /// carrying the start marker across runs would let an unrelated run's
    /// `RoundCompleted` close it against a reset clock.
    pub fn merge(&mut self, other: &MetricsSink) {
        self.decide_times.merge(&other.decide_times);
        self.decide_rounds.merge(&other.decide_rounds);
        for (&round, samples) in &other.round_latency {
            self.round_latency.entry(round).or_default().merge(samples);
        }
        for (&kind, &(count, bytes)) in &other.msgs_by_kind {
            let entry = self.msgs_by_kind.entry(kind).or_insert((0, 0));
            entry.0 += count;
            entry.1 += bytes;
        }
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        for (mine, theirs) in self.validated_by_step.iter_mut().zip(other.validated_by_step) {
            *mine += theirs;
        }
        self.rejected += other.rejected;
        self.quorums += other.quorums;
        self.coin_flips += other.coin_flips;
        self.locks += other.locks;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.events_total += other.events_total;
        self.peer_connects += other.peer_connects;
        self.peer_disconnects += other.peer_disconnects;
        self.peer_reconnects += other.peer_reconnects;
        self.backoff_retries += other.backoff_retries;
        self.frame_decode_errors += other.frame_decode_errors;
        self.frame_sequence_gaps += other.frame_sequence_gaps;
        self.payloads_rejected += other.payloads_rejected;
        self.peak_link_log = self.peak_link_log.max(other.peak_link_log);
        self.reactor.add(&other.reactor);
        self.chaos_frames_dropped += other.chaos_frames_dropped;
        self.epochs_started += other.epochs_started;
        self.epochs_committed += other.epochs_committed;
        self.batches_submitted += other.batches_submitted;
        self.txs_submitted += other.txs_submitted;
        self.txs_delivered += other.txs_delivered;
        self.rbc_fragments_ok += other.rbc_fragments_ok;
        self.rbc_fragments_rejected += other.rbc_fragments_rejected;
        self.rbc_reconstructions += other.rbc_reconstructions;
        self.rbc_reconstruct_bytes += other.rbc_reconstruct_bytes;
        self.rbc_hashed_shards += other.rbc_hashed_shards;
        self.epoch_commit_latency.merge(&other.epoch_commit_latency);
        self.occupancy.merge(&other.occupancy);
        self.max_pipeline_occupancy = self.max_pipeline_occupancy.max(other.max_pipeline_occupancy);
        self.slots_applied += other.slots_applied;
        self.applied_bytes += other.applied_bytes;
        self.checkpoints_proposed += other.checkpoints_proposed;
        self.checkpoints_certified += other.checkpoints_certified;
        self.checkpoint_latency.merge(&other.checkpoint_latency);
        self.state_transfers_started += other.state_transfers_started;
        self.state_transfers_completed += other.state_transfers_completed;
        self.state_transfer_bytes += other.state_transfer_bytes;
        self.poison_detections += other.poison_detections;
        self.gateway_accepted += other.gateway_accepted;
        self.gateway_nacked += other.gateway_nacked;
        self.gateway_committed += other.gateway_committed;
        // `other`'s still-open epochs and checkpoints are discarded for
        // the same reason as its still-open rounds (see above).
    }

    fn close_round(&mut self, at: u64, node: NodeId, round: u64) {
        if let Some(start) = self.open_rounds.remove(&(node, round)) {
            self.round_latency.entry(round).or_default().add(at.saturating_sub(start) as f64);
        }
    }

    /// Serializes the aggregate as a JSON object (the per-config body of
    /// the bench report).
    pub fn to_json(&mut self) -> JsonValue {
        let mut obj = Vec::new();
        obj.push(("events_total".into(), JsonValue::U64(self.events_total)));

        let mut latency = Vec::new();
        if !self.decide_times.is_empty() {
            latency.push(("mean".into(), JsonValue::F64(self.decide_times.mean())));
            latency.push((
                "p50".into(),
                JsonValue::F64(self.decide_times.percentile(50.0).unwrap_or(0.0)),
            ));
            latency.push((
                "p90".into(),
                JsonValue::F64(self.decide_times.percentile(90.0).unwrap_or(0.0)),
            ));
            latency.push(("max".into(), JsonValue::F64(self.decide_times.max().unwrap_or(0.0))));
        }
        obj.push(("decision_latency".into(), JsonValue::Obj(latency)));

        let rounds: Vec<JsonValue> = self
            .decide_rounds
            .iter()
            .map(|(round, count)| {
                JsonValue::Obj(vec![
                    ("round".into(), JsonValue::U64(round)),
                    ("nodes".into(), JsonValue::U64(count)),
                ])
            })
            .collect();
        obj.push(("decision_rounds".into(), JsonValue::Arr(rounds)));

        let mut per_round = Vec::new();
        for (&round, samples) in self.round_latency.iter_mut() {
            per_round.push(JsonValue::Obj(vec![
                ("round".into(), JsonValue::U64(round)),
                ("nodes".into(), JsonValue::U64(samples.len() as u64)),
                ("mean".into(), JsonValue::F64(samples.mean())),
                ("p50".into(), JsonValue::F64(samples.percentile(50.0).unwrap_or(0.0))),
                ("max".into(), JsonValue::F64(samples.max().unwrap_or(0.0))),
            ]));
        }
        obj.push(("round_latency".into(), JsonValue::Arr(per_round)));

        let kinds: Vec<JsonValue> = self
            .msgs_by_kind
            .iter()
            .map(|(kind, (count, bytes))| {
                JsonValue::Obj(vec![
                    ("kind".into(), JsonValue::str(*kind)),
                    ("count".into(), JsonValue::U64(*count)),
                    ("bytes".into(), JsonValue::U64(*bytes)),
                ])
            })
            .collect();
        obj.push(("messages_by_kind".into(), JsonValue::Arr(kinds)));
        obj.push(("delivered".into(), JsonValue::U64(self.delivered)));
        obj.push(("dropped".into(), JsonValue::U64(self.dropped)));

        let validated: Vec<JsonValue> = Step::ALL
            .iter()
            .map(|step| {
                JsonValue::Obj(vec![
                    ("step".into(), JsonValue::str(step.to_string())),
                    ("count".into(), JsonValue::U64(self.validated_by_step[step.index()])),
                ])
            })
            .collect();
        obj.push(("validated_by_step".into(), JsonValue::Arr(validated)));
        obj.push(("rejected".into(), JsonValue::U64(self.rejected)));
        obj.push(("quorums".into(), JsonValue::U64(self.quorums)));
        obj.push(("coin_flips".into(), JsonValue::U64(self.coin_flips)));
        obj.push(("value_locks".into(), JsonValue::U64(self.locks)));
        obj.push(("max_queue_depth".into(), JsonValue::U64(self.max_queue_depth)));
        let mut reactor: Vec<(String, JsonValue)> =
            self.reactor.json_fields().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        reactor.push(("frames_per_write".into(), JsonValue::F64(self.reactor.frames_per_write())));
        obj.push((
            "transport".into(),
            JsonValue::Obj(vec![
                ("connects".into(), JsonValue::U64(self.peer_connects)),
                ("disconnects".into(), JsonValue::U64(self.peer_disconnects)),
                ("reconnects".into(), JsonValue::U64(self.peer_reconnects)),
                ("backoff_retries".into(), JsonValue::U64(self.backoff_retries)),
                ("frame_decode_errors".into(), JsonValue::U64(self.frame_decode_errors)),
                ("frame_sequence_gaps".into(), JsonValue::U64(self.frame_sequence_gaps)),
                ("payloads_rejected".into(), JsonValue::U64(self.payloads_rejected)),
                ("peak_link_log".into(), JsonValue::U64(self.peak_link_log)),
                ("chaos_frames_dropped".into(), JsonValue::U64(self.chaos_frames_dropped)),
                ("reactor".into(), JsonValue::Obj(reactor)),
            ]),
        ));
        let mut commit_latency = Vec::new();
        if !self.epoch_commit_latency.is_empty() {
            commit_latency.push(("mean".into(), JsonValue::F64(self.epoch_commit_latency.mean())));
            commit_latency.push((
                "p50".into(),
                JsonValue::F64(self.epoch_commit_latency.percentile(50.0).unwrap_or(0.0)),
            ));
            commit_latency.push((
                "max".into(),
                JsonValue::F64(self.epoch_commit_latency.max().unwrap_or(0.0)),
            ));
        }
        let mut occupancy = Vec::new();
        if !self.occupancy.is_empty() {
            occupancy.push(("mean".into(), JsonValue::F64(self.occupancy.mean())));
            occupancy.push(("max".into(), JsonValue::U64(self.max_pipeline_occupancy)));
        }
        obj.push((
            "ordering".into(),
            JsonValue::Obj(vec![
                ("epochs_started".into(), JsonValue::U64(self.epochs_started)),
                ("epochs_committed".into(), JsonValue::U64(self.epochs_committed)),
                ("batches_submitted".into(), JsonValue::U64(self.batches_submitted)),
                ("txs_submitted".into(), JsonValue::U64(self.txs_submitted)),
                ("txs_delivered".into(), JsonValue::U64(self.txs_delivered)),
                ("rbc_reconstructions".into(), JsonValue::U64(self.rbc_reconstructions)),
                ("rbc_reconstruct_bytes".into(), JsonValue::U64(self.rbc_reconstruct_bytes)),
                ("rbc_hashed_shards".into(), JsonValue::U64(self.rbc_hashed_shards)),
                ("epoch_commit_latency".into(), JsonValue::Obj(commit_latency)),
                ("pipeline_occupancy".into(), JsonValue::Obj(occupancy)),
            ]),
        ));
        let mut ckpt_latency = Vec::new();
        if !self.checkpoint_latency.is_empty() {
            ckpt_latency.push(("mean".into(), JsonValue::F64(self.checkpoint_latency.mean())));
            ckpt_latency.push((
                "p50".into(),
                JsonValue::F64(self.checkpoint_latency.percentile(50.0).unwrap_or(0.0)),
            ));
            ckpt_latency
                .push(("max".into(), JsonValue::F64(self.checkpoint_latency.max().unwrap_or(0.0))));
        }
        obj.push((
            "state_machine".into(),
            JsonValue::Obj(vec![
                ("slots_applied".into(), JsonValue::U64(self.slots_applied)),
                ("applied_bytes".into(), JsonValue::U64(self.applied_bytes)),
                ("checkpoints_proposed".into(), JsonValue::U64(self.checkpoints_proposed)),
                ("checkpoints_certified".into(), JsonValue::U64(self.checkpoints_certified)),
                ("checkpoint_latency".into(), JsonValue::Obj(ckpt_latency)),
                ("state_transfers_started".into(), JsonValue::U64(self.state_transfers_started)),
                (
                    "state_transfers_completed".into(),
                    JsonValue::U64(self.state_transfers_completed),
                ),
                ("state_transfer_bytes".into(), JsonValue::U64(self.state_transfer_bytes)),
            ]),
        ));
        JsonValue::Obj(obj)
    }

    /// Renders the aggregate in the Prometheus text exposition format
    /// (counters, gauges, summaries and one cumulative histogram), so
    /// external tooling can scrape a run snapshot without parsing JSONL.
    ///
    /// Output order is pinned (struct field order; BTreeMap keys sort),
    /// so same-seed runs render byte-identical snapshots.
    pub fn render_prometheus(&mut self) -> String {
        let mut out = String::new();
        prom_counter(&mut out, "bft_events_total", "Events consumed", self.events_total);
        for (kind, (count, bytes)) in &self.msgs_by_kind {
            out.push_str(&format!(
                "bft_messages_total{{kind=\"{}\"}} {count}\n",
                prom_escape(kind)
            ));
            out.push_str(&format!(
                "bft_message_bytes_total{{kind=\"{}\"}} {bytes}\n",
                prom_escape(kind)
            ));
        }
        prom_counter(&mut out, "bft_delivered_total", "Messages delivered", self.delivered);
        prom_counter(&mut out, "bft_dropped_total", "Messages dropped", self.dropped);
        for step in Step::ALL.iter() {
            out.push_str(&format!(
                "bft_validated_total{{step=\"{step}\"}} {}\n",
                self.validated_by_step[step.index()]
            ));
        }
        prom_counter(&mut out, "bft_rejected_total", "Payloads rejected", self.rejected);
        prom_counter(&mut out, "bft_quorums_total", "Step quorums reached", self.quorums);
        prom_counter(&mut out, "bft_coin_flips_total", "Coin flips", self.coin_flips);
        prom_counter(&mut out, "bft_value_locks_total", "Value locks", self.locks);
        prom_gauge(&mut out, "bft_max_queue_depth", "Peak queue depth", self.max_queue_depth);
        prom_counter(&mut out, "bft_peer_connects_total", "Peer connects", self.peer_connects);
        prom_counter(
            &mut out,
            "bft_peer_disconnects_total",
            "Peer disconnects",
            self.peer_disconnects,
        );
        prom_counter(
            &mut out,
            "bft_peer_reconnects_total",
            "Peer reconnects",
            self.peer_reconnects,
        );
        prom_counter(
            &mut out,
            "bft_backoff_retries_total",
            "Reconnect backoff retries",
            self.backoff_retries,
        );
        prom_counter(
            &mut out,
            "bft_frame_decode_errors_total",
            "Inbound frame decode errors",
            self.frame_decode_errors,
        );
        prom_counter(
            &mut out,
            "bft_frame_sequence_gaps_total",
            "Inbound frame sequence gaps",
            self.frame_sequence_gaps,
        );
        prom_counter(
            &mut out,
            "bft_payloads_rejected_total",
            "Oversize outbound bodies rejected",
            self.payloads_rejected,
        );
        prom_gauge(
            &mut out,
            "bft_peak_link_log_frames",
            "Peak frames resident in one link's replay log",
            self.peak_link_log,
        );
        prom_counter(
            &mut out,
            "bft_chaos_frames_dropped_total",
            "Frames dropped by the chaos layer",
            self.chaos_frames_dropped,
        );
        prom_counter(&mut out, "bft_epochs_started_total", "Epochs opened", self.epochs_started);
        prom_counter(
            &mut out,
            "bft_epochs_committed_total",
            "Epochs committed",
            self.epochs_committed,
        );
        prom_counter(
            &mut out,
            "bft_batches_submitted_total",
            "Batches submitted",
            self.batches_submitted,
        );
        prom_counter(&mut out, "bft_txs_submitted_total", "Txs submitted", self.txs_submitted);
        prom_counter(&mut out, "bft_txs_delivered_total", "Txs ordered", self.txs_delivered);
        prom_counter(
            &mut out,
            "bft_rbc_fragments_ok_total",
            "Coded fragments verified",
            self.rbc_fragments_ok,
        );
        prom_counter(
            &mut out,
            "bft_rbc_fragments_rejected_total",
            "Coded fragments rejected",
            self.rbc_fragments_rejected,
        );
        prom_counter(
            &mut out,
            "bft_rbc_reconstructions_total",
            "Coded payload reconstructions",
            self.rbc_reconstructions,
        );
        prom_counter(
            &mut out,
            "bft_rbc_reconstruct_bytes_total",
            "Bytes recovered by reconstruction",
            self.rbc_reconstruct_bytes,
        );
        prom_counter(
            &mut out,
            "bft_rbc_hashed_shards_total",
            "Shards re-hashed by reconstruction",
            self.rbc_hashed_shards,
        );
        prom_gauge(
            &mut out,
            "bft_max_pipeline_occupancy",
            "Peak concurrently in-flight epochs",
            self.max_pipeline_occupancy,
        );
        prom_counter(
            &mut out,
            "bft_slots_applied_total",
            "State-machine slots applied",
            self.slots_applied,
        );
        prom_counter(
            &mut out,
            "bft_applied_bytes_total",
            "Payload bytes applied",
            self.applied_bytes,
        );
        prom_counter(
            &mut out,
            "bft_checkpoints_proposed_total",
            "Checkpoint hashes proposed",
            self.checkpoints_proposed,
        );
        prom_counter(
            &mut out,
            "bft_checkpoints_certified_total",
            "Checkpoint certificates collected",
            self.checkpoints_certified,
        );
        prom_counter(
            &mut out,
            "bft_state_transfers_started_total",
            "Peer state transfers started",
            self.state_transfers_started,
        );
        prom_counter(
            &mut out,
            "bft_state_transfers_completed_total",
            "Peer state transfers completed",
            self.state_transfers_completed,
        );
        prom_counter(
            &mut out,
            "bft_state_transfer_bytes_total",
            "Snapshot bytes installed by state transfer",
            self.state_transfer_bytes,
        );

        prom_summary(
            &mut out,
            "bft_decision_latency",
            "Decision timestamps across nodes",
            &mut self.decide_times,
        );
        prom_summary(
            &mut out,
            "bft_epoch_commit_latency",
            "Epoch start-to-commit durations",
            &mut self.epoch_commit_latency,
        );
        prom_summary(
            &mut out,
            "bft_checkpoint_latency",
            "Checkpoint propose-to-certify durations",
            &mut self.checkpoint_latency,
        );
        prom_summary(
            &mut out,
            "bft_pipeline_occupancy",
            "In-flight epochs at each epoch start",
            &mut self.occupancy,
        );
        for (&round, samples) in self.round_latency.iter_mut() {
            for (q, label) in [(50.0, "0.5"), (99.0, "0.99")] {
                out.push_str(&format!(
                    "bft_round_latency{{round=\"{round}\",quantile=\"{label}\"}} {}\n",
                    samples.percentile(q).unwrap_or(0.0)
                ));
            }
            out.push_str(&format!(
                "bft_round_latency_count{{round=\"{round}\"}} {}\n",
                samples.len()
            ));
        }

        prom_int_histogram(
            &mut out,
            "bft_decision_rounds",
            "Rounds to decide across nodes",
            &self.decide_rounds,
        );
        out
    }
}

fn prom_escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prom_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"));
}

fn prom_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"));
}

fn prom_summary(out: &mut String, name: &str, help: &str, samples: &mut Samples) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
    if !samples.is_empty() {
        for (q, label) in [(50.0, "0.5"), (90.0, "0.9"), (99.0, "0.99")] {
            out.push_str(&format!(
                "{name}{{quantile=\"{label}\"}} {}\n",
                samples.percentile(q).unwrap_or(0.0)
            ));
        }
    }
    let sum: f64 = samples.values().iter().sum();
    out.push_str(&format!("{name}_sum {sum}\n{name}_count {}\n", samples.len()));
}

fn prom_int_histogram(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    let mut sum = 0u128;
    for (value, count) in hist.iter() {
        cumulative += count;
        sum += value as u128 * count as u128;
        out.push_str(&format!("{name}_bucket{{le=\"{value}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
    out.push_str(&format!("{name}_sum {sum}\n{name}_count {}\n", hist.count()));
}

impl Sink for MetricsSink {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        self.events_total += 1;
        match event {
            Event::MessageSent { kind, bytes, .. } => {
                let entry = self.msgs_by_kind.entry(kind).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += bytes;
            }
            Event::MessageDelivered { .. } => self.delivered += 1,
            Event::MessageDropped { .. } => self.dropped += 1,
            Event::QueueDepth { depth } => {
                self.max_queue_depth = self.max_queue_depth.max(*depth);
            }
            Event::RoundStarted { round } => {
                self.open_rounds.insert((node, *round), at);
            }
            Event::RoundCompleted { round } => self.close_round(at, node, *round),
            Event::QuorumReached { .. } => self.quorums += 1,
            Event::MessageValidated { step, .. } => {
                self.validated_by_step[step.index()] += 1;
            }
            Event::MessageRejected { .. } => self.rejected += 1,
            Event::CoinFlipped { .. } => self.coin_flips += 1,
            Event::ValueLocked { .. } => self.locks += 1,
            Event::Decided { round, .. } => {
                self.decide_times.add(at as f64);
                self.decide_rounds.add(*round);
                self.close_round(at, node, *round);
            }
            Event::PeerConnected { .. } => self.peer_connects += 1,
            Event::PeerDisconnected { .. } => self.peer_disconnects += 1,
            Event::PeerReconnected { .. } => self.peer_reconnects += 1,
            Event::ReconnectBackoff { .. } => self.backoff_retries += 1,
            Event::FrameDecodeError { .. } => self.frame_decode_errors += 1,
            Event::FrameSequenceGap { .. } => self.frame_sequence_gaps += 1,
            Event::PayloadRejected { .. } => self.payloads_rejected += 1,
            Event::LinkLogPeak { frames, .. } => {
                self.peak_link_log = self.peak_link_log.max(*frames)
            }
            Event::ReactorStats(stats) => self.reactor.add(stats),
            Event::FrameDropped { .. } => self.chaos_frames_dropped += 1,
            Event::EpochStarted { epoch } => {
                self.epochs_started += 1;
                self.open_epochs.insert((node, *epoch), at);
                let inflight = self.inflight_epochs.entry(node).or_insert(0);
                *inflight += 1;
                self.occupancy.add(*inflight as f64);
                self.max_pipeline_occupancy = self.max_pipeline_occupancy.max(*inflight);
            }
            Event::EpochCommitted { epoch, .. } => {
                self.epochs_committed += 1;
                if let Some(start) = self.open_epochs.remove(&(node, *epoch)) {
                    self.epoch_commit_latency.add(at.saturating_sub(start) as f64);
                }
                if let Some(inflight) = self.inflight_epochs.get_mut(&node) {
                    *inflight = inflight.saturating_sub(1);
                }
            }
            Event::BatchSubmitted { txs, .. } => {
                self.batches_submitted += 1;
                self.txs_submitted += txs;
            }
            Event::LogDelivered { entries, .. } => self.txs_delivered += entries,
            Event::SlotApplied { bytes, .. } => {
                self.slots_applied += 1;
                self.applied_bytes += bytes;
            }
            Event::CheckpointProposed { epoch, .. } => {
                self.checkpoints_proposed += 1;
                self.open_checkpoints.insert((node, *epoch), at);
            }
            Event::CheckpointCertified { epoch, .. } => {
                self.checkpoints_certified += 1;
                if let Some(start) = self.open_checkpoints.remove(&(node, *epoch)) {
                    self.checkpoint_latency.add(at.saturating_sub(start) as f64);
                }
            }
            Event::StateTransferStarted { .. } => self.state_transfers_started += 1,
            Event::StateTransferCompleted { bytes, .. } => {
                self.state_transfers_completed += 1;
                self.state_transfer_bytes += bytes;
            }
            Event::RbcFragment { verified, .. } => {
                if *verified {
                    self.rbc_fragments_ok += 1;
                } else {
                    self.rbc_fragments_rejected += 1;
                }
            }
            Event::RbcReconstructed { bytes, hashed_shards, consistent, .. } => {
                self.rbc_reconstructions += 1;
                self.rbc_hashed_shards += hashed_shards;
                if *consistent {
                    self.rbc_reconstruct_bytes += bytes;
                }
            }
            Event::PoisonDetected { .. } => self.poison_detections += 1,
            Event::GatewayAccepted { .. } => self.gateway_accepted += 1,
            Event::GatewayNacked { .. } => self.gateway_nacked += 1,
            Event::GatewayCommitted { .. } => self.gateway_committed += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::Value;

    #[test]
    fn aggregates_round_latency_and_decisions() {
        let mut sink = MetricsSink::new();
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        sink.on_event(0, n0, &Event::RoundStarted { round: 1 });
        sink.on_event(0, n1, &Event::RoundStarted { round: 1 });
        sink.on_event(10, n0, &Event::Decided { round: 1, value: Value::One });
        sink.on_event(14, n1, &Event::RoundCompleted { round: 1 });
        assert_eq!(sink.decide_times().len(), 1);
        assert_eq!(sink.decide_rounds().count(), 1);
        let samples = &sink.round_latency()[&1];
        assert_eq!(samples.len(), 2);
        assert!((samples.mean() - 12.0).abs() < 1e-9);
    }

    /// Merging per-run sinks in a pinned order must be indistinguishable
    /// from feeding all the runs' events into one sink run-by-run — the
    /// property the CLIs' multi-run totals rest on.
    #[test]
    fn merge_equals_sequential_feed() {
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let run_a: Vec<(u64, NodeId, Event)> = vec![
            (0, n0, Event::RoundStarted { round: 1 }),
            (0, n0, Event::MessageSent { to: n1, kind: "send/initial", bytes: 16 }),
            (2, n0, Event::MessageDelivered { from: n1, kind: "send/initial" }),
            (4, n0, Event::QuorumReached { round: 1, step: Step::Initial, support: 3 }),
            (7, n0, Event::Decided { round: 1, value: Value::One }),
        ];
        let run_b: Vec<(u64, NodeId, Event)> = vec![
            (0, n1, Event::RoundStarted { round: 1 }),
            (1, n1, Event::QueueDepth { depth: 9 }),
            (3, n1, Event::MessageRejected { origin: n0, round: 1, reason: "equivocation" }),
            (5, n1, Event::Decided { round: 2, value: Value::Zero }),
        ];

        let mut merged = MetricsSink::new();
        for run in [&run_a, &run_b] {
            let mut per_run = MetricsSink::new();
            for (at, node, ev) in run.iter() {
                per_run.on_event(*at, *node, ev);
            }
            merged.merge(&per_run);
        }

        let mut sequential = MetricsSink::new();
        for (at, node, ev) in run_a.iter().chain(run_b.iter()) {
            sequential.on_event(*at, *node, ev);
        }

        assert_eq!(merged.to_json().to_string(), sequential.to_json().to_string());
        assert_eq!(merged.events_total(), 9);
        assert_eq!(merged.max_queue_depth(), 9);
    }

    /// Merge order is observable (sample order) only up to statistics:
    /// the JSON aggregate sorts/sums everything, but we still pin the
    /// order so raw sample dumps stay reproducible.
    #[test]
    fn merge_appends_samples_in_call_order() {
        let mk = |t: u64| {
            let mut s = MetricsSink::new();
            s.on_event(t, NodeId::new(0), &Event::Decided { round: 1, value: Value::One });
            s
        };
        let mut ab = MetricsSink::new();
        ab.merge(&mk(5));
        ab.merge(&mk(3));
        assert_eq!(ab.decide_times().values(), &[5.0, 3.0]);
    }

    #[test]
    fn prometheus_rendering_is_stable_and_complete() {
        let mut sink = MetricsSink::new();
        let n0 = NodeId::new(0);
        sink.on_event(0, n0, &Event::RoundStarted { round: 1 });
        sink.on_event(0, n0, &Event::MessageSent { to: n0, kind: "send/initial", bytes: 16 });
        sink.on_event(3, n0, &Event::QueueDepth { depth: 4 });
        sink.on_event(7, n0, &Event::Decided { round: 1, value: Value::One });
        let text = sink.render_prometheus();
        assert!(text.contains("# TYPE bft_events_total counter"));
        assert!(text.contains("bft_events_total 4"));
        assert!(text.contains(r#"bft_messages_total{kind="send/initial"} 1"#));
        assert!(text.contains(r#"bft_message_bytes_total{kind="send/initial"} 16"#));
        assert!(text.contains("bft_max_queue_depth 4"));
        assert!(text.contains(r#"bft_decision_latency{quantile="0.5"} 7"#));
        assert!(text.contains("bft_decision_latency_count 1"));
        assert!(text.contains(r#"bft_decision_rounds_bucket{le="1"} 1"#));
        assert!(text.contains(r#"bft_decision_rounds_bucket{le="+Inf"} 1"#));
        assert!(text.contains(r#"bft_round_latency{round="1",quantile="0.5"} 7"#));
        assert_eq!(text, sink.render_prometheus(), "rendering is pure");
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line.split_once(' ').is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn counts_messages_by_kind() {
        let mut sink = MetricsSink::new();
        let n0 = NodeId::new(0);
        sink.on_event(0, n0, &Event::MessageSent { to: n0, kind: "echo/echo", bytes: 16 });
        sink.on_event(0, n0, &Event::MessageSent { to: n0, kind: "echo/echo", bytes: 16 });
        sink.on_event(1, n0, &Event::MessageDelivered { from: n0, kind: "echo/echo" });
        assert_eq!(sink.msgs_by_kind()["echo/echo"], (2, 32));
        assert_eq!(sink.delivered(), 1);
        let json = sink.to_json().to_string();
        assert!(json.contains(r#""messages_by_kind":[{"kind":"echo/echo","count":2,"bytes":32}]"#));
    }
}
