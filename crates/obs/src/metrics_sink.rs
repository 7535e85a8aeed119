//! Per-round / per-phase metrics aggregation.
//!
//! Every scalar the sink keeps — a sum or a running maximum — is one row
//! of the `scalars` table in the `metrics_sink!` invocation below; the
//! row generates the field, its accessor, its line in [`MetricsSink::merge`]
//! and its Prometheus line. To add one, add a row and bump it in the
//! matching `on_event` arm.

use crate::{Event, ReactorStats, Sink};
use bft_stats::{Histogram, Samples};
use bft_types::{NodeId, Step};
use std::collections::BTreeMap;
use std::fmt::Display;

/// How a scalar row folds across merged sinks, and its Prometheus type.
#[derive(Clone, Copy)]
enum Kind {
    /// A sum: merges add, renders as a counter.
    Counter,
    /// A running maximum: merges take the max, renders as a gauge.
    Gauge,
}

impl Kind {
    /// Folds `value` into `into`: the merge of two rows, and how a gauge
    /// takes in a sample.
    fn fold(self, into: &mut u64, value: u64) {
        match self {
            Kind::Counter => *into += value,
            Kind::Gauge => *into = (*into).max(value),
        }
    }

    fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// Declares [`MetricsSink`]: its hand-written aggregates, then one row per
/// `u64` scalar — `field: Kind, "prometheus_name", "help"` — optionally
/// followed by `then method` to render a labelled family after that row.
macro_rules! metrics_sink {
    (
        $(#[$meta:meta])*
        pub struct MetricsSink {
            $( $field:ident: $ty:ty, )*
        }
        scalars {
            $(
                $(#[$smeta:meta])*
                $scalar:ident: $kind:ident, $prom:literal, $help:literal $(, then $after:ident)?;
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct MetricsSink {
            $( $field: $ty, )*
            $( $scalar: u64, )*
        }

        impl MetricsSink {
            $(
                $(#[$smeta])*
                pub fn $scalar(&self) -> u64 {
                    self.$scalar
                }
            )*

            fn merge_scalars(&mut self, other: &MetricsSink) {
                $( Kind::$kind.fold(&mut self.$scalar, other.$scalar); )*
            }

            fn render_scalars(&self, out: &mut String) {
                $(
                    prom_scalar(out, $prom, $help, Kind::$kind.prom_type(), self.$scalar);
                    $( self.$after(out); )?
                )*
            }
        }
    };
}

metrics_sink! {
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
    /// * epoch commit and checkpoint latency, pipeline occupancy;
    /// * message counts and bytes by classifier kind, validated-message
    ///   counts per step, reactor syscall counts;
    /// * the scalar sums and running maxima of the `scalars` table, one
    ///   accessor each.
    pub struct MetricsSink {
        decide_times: Samples,
        decide_rounds: Histogram,
        round_latency: BTreeMap<u64, Samples>,
        open_rounds: BTreeMap<(NodeId, u64), u64>,
        msgs_by_kind: BTreeMap<&'static str, (u64, u64)>,
        validated_by_step: [u64; 3],
        reactor: ReactorStats,
        epoch_commit_latency: Samples,
        open_epochs: BTreeMap<(NodeId, u64), u64>,
        inflight_epochs: BTreeMap<NodeId, u64>,
        occupancy: Samples,
        checkpoint_latency: Samples,
        open_checkpoints: BTreeMap<(NodeId, u64), u64>,
    }
    scalars {
        /// Total events consumed.
        events_total: Counter, "bft_events_total", "Events consumed", then render_kinds;
        /// Messages delivered.
        delivered: Counter, "bft_delivered_total", "Messages delivered";
        /// Messages dropped (halted destinations).
        dropped: Counter, "bft_dropped_total", "Messages dropped", then render_validated;
        /// Payloads rejected before validation.
        rejected: Counter, "bft_rejected_total", "Payloads rejected";
        /// Step quorums observed.
        quorums: Counter, "bft_quorums_total", "Step quorums reached";
        /// Coin flips observed.
        coin_flips: Counter, "bft_coin_flips_total", "Coin flips";
        /// Value locks observed.
        locks: Counter, "bft_value_locks_total", "Value locks";
        /// Highest queue-depth sample seen.
        max_queue_depth: Gauge, "bft_max_queue_depth", "Peak queue depth";
        /// First-time transport connections authenticated (net runtime).
        peer_connects: Counter, "bft_peer_connects_total", "Peer connects";
        /// Transport connections lost (closed, write failure, decode drop).
        peer_disconnects: Counter, "bft_peer_disconnects_total", "Peer disconnects";
        /// Links re-established after a disconnect.
        peer_reconnects: Counter, "bft_peer_reconnects_total", "Peer reconnects";
        /// Failed dial attempts that entered a backoff wait.
        backoff_retries: Counter, "bft_backoff_retries_total", "Reconnect backoff retries";
        /// Inbound frames rejected by the strict decoder.
        frame_decode_errors: Counter,
            "bft_frame_decode_errors_total", "Inbound frame decode errors";
        /// Inbound frames that skipped ahead of the expected sequence number
        /// (transport-ordering faults; the connection is dropped and replayed).
        frame_sequence_gaps: Counter,
            "bft_frame_sequence_gaps_total", "Inbound frame sequence gaps";
        /// Outbound bodies rejected at the send boundary for exceeding the
        /// frame cap.
        payloads_rejected: Counter,
            "bft_payloads_rejected_total", "Oversize outbound bodies rejected";
        /// High-water mark of any directed link's replay log, in frames.
        peak_link_log: Gauge,
            "bft_peak_link_log_frames", "Peak frames resident in one link's replay log",
            then render_reactor;
        /// Transport worker panics detected by the runtime's supervision
        /// (each also sets `RuntimeReport::poisoned`).
        poison_detections: Counter,
            "bft_poison_detections_total", "Transport worker panics detected";
        /// Ordering epochs opened across nodes.
        epochs_started: Counter, "bft_epochs_started_total", "Epochs opened";
        /// Ordering epochs whose ACS decided across nodes.
        epochs_committed: Counter, "bft_epochs_committed_total", "Epochs committed";
        /// Own batches proposed into epochs across nodes.
        batches_submitted: Counter, "bft_batches_submitted_total", "Batches submitted";
        /// Transactions carried by submitted batches across nodes.
        txs_submitted: Counter, "bft_txs_submitted_total", "Txs submitted";
        /// Transactions appended to totally-ordered logs across nodes.
        txs_delivered: Counter, "bft_txs_delivered_total", "Txs ordered";
        /// Client submissions the gateway accepted into mempools.
        gateway_accepted: Counter,
            "bft_gateway_accepted_total", "Client submissions accepted by gateways";
        /// Client submissions the gateway rejected with a typed NACK.
        gateway_nacked: Counter,
            "bft_gateway_nacked_total", "Client submissions refused with a NACK";
        /// Gateway-accepted transactions that committed and were acked.
        gateway_committed: Counter,
            "bft_gateway_committed_total", "Client submissions committed and acked";
        /// Erasure-coded fragments that passed commitment verification.
        rbc_fragments_ok: Counter, "bft_rbc_fragments_ok_total", "Coded fragments verified";
        /// Erasure-coded fragments rejected (bad proof, wrong index, dup).
        rbc_fragments_rejected: Counter,
            "bft_rbc_fragments_rejected_total", "Coded fragments rejected";
        /// Payload reconstructions attempted by the coded broadcast.
        rbc_reconstructions: Counter,
            "bft_rbc_reconstructions_total", "Coded payload reconstructions";
        /// Bytes recovered by successful reconstructions.
        rbc_reconstruct_bytes: Counter,
            "bft_rbc_reconstruct_bytes_total", "Bytes recovered by reconstruction";
        /// Shards re-hashed by reconstructions' codeword checks (the rest of
        /// each codeword's `n` leaves were reused from fragment verification).
        rbc_hashed_shards: Counter,
            "bft_rbc_hashed_shards_total", "Shards re-hashed by reconstruction";
        /// Highest number of concurrently in-flight epochs seen at one node.
        max_pipeline_occupancy: Gauge,
            "bft_max_pipeline_occupancy", "Peak concurrently in-flight epochs";
        /// Log slots applied by replicated state machines across nodes.
        slots_applied: Counter, "bft_slots_applied_total", "State-machine slots applied";
        /// Payload bytes of applied slots across nodes.
        applied_bytes: Counter, "bft_applied_bytes_total", "Payload bytes applied";
        /// Checkpoint state hashes proposed (RBC-broadcast) across nodes.
        checkpoints_proposed: Counter,
            "bft_checkpoints_proposed_total", "Checkpoint hashes proposed";
        /// Checkpoint certificates collected (`2f + 1` matching hashes)
        /// across nodes.
        checkpoints_certified: Counter,
            "bft_checkpoints_certified_total", "Checkpoint certificates collected";
        /// Peer state transfers initiated (catch-up fetches) across nodes.
        state_transfers_started: Counter,
            "bft_state_transfers_started_total", "Peer state transfers started";
        /// Peer state transfers that reconstructed, verified and installed a
        /// snapshot.
        state_transfers_completed: Counter,
            "bft_state_transfers_completed_total", "Peer state transfers completed";
        /// Snapshot bytes installed by completed state transfers.
        state_transfer_bytes: Counter,
            "bft_state_transfer_bytes_total", "Snapshot bytes installed by state transfer";
    }
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

    /// Validated-message counts indexed by [`Step::index`].
    pub fn validated_by_step(&self) -> [u64; 3] {
        self.validated_by_step
    }

    /// Reactor syscall and frame counts, summed over the nodes that
    /// reported them.
    pub fn reactor(&self) -> ReactorStats {
        self.reactor
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

    /// `CheckpointCertified − CheckpointProposed` durations, one sample
    /// per `(node, epoch)` pair that certified.
    pub fn checkpoint_latency(&self) -> &Samples {
        &self.checkpoint_latency
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
        self.merge_scalars(other);
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
        for (mine, theirs) in self.validated_by_step.iter_mut().zip(other.validated_by_step) {
            *mine += theirs;
        }
        self.reactor.add(&other.reactor);
        self.epoch_commit_latency.merge(&other.epoch_commit_latency);
        self.occupancy.merge(&other.occupancy);
        self.checkpoint_latency.merge(&other.checkpoint_latency);
        // `other`'s still-open epochs and checkpoints are discarded for
        // the same reason as its still-open rounds (see above).
    }

    fn close_round(&mut self, at: u64, node: NodeId, round: u64) {
        if let Some(start) = self.open_rounds.remove(&(node, round)) {
            self.round_latency.entry(round).or_default().add(at.saturating_sub(start) as f64);
        }
    }

    /// Renders the aggregate in the Prometheus text exposition format
    /// (counters, gauges, summaries and one cumulative histogram), so
    /// external tooling can scrape a run snapshot without parsing JSONL.
    ///
    /// Output order is pinned (table row order; BTreeMap keys sort), so
    /// same-seed runs render byte-identical snapshots.
    pub fn render_prometheus(&mut self) -> String {
        let mut out = String::new();
        self.render_scalars(&mut out);
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

    fn render_kinds(&self, out: &mut String) {
        for (kind, (count, bytes)) in &self.msgs_by_kind {
            let kind = prom_escape(kind);
            out.push_str(&format!("bft_messages_total{{kind=\"{kind}\"}} {count}\n"));
            out.push_str(&format!("bft_message_bytes_total{{kind=\"{kind}\"}} {bytes}\n"));
        }
    }

    fn render_validated(&self, out: &mut String) {
        for step in Step::ALL.iter() {
            out.push_str(&format!(
                "bft_validated_total{{step=\"{step}\"}} {}\n",
                self.validated_by_step[step.index()]
            ));
        }
    }

    fn render_reactor(&self, out: &mut String) {
        for (key, help, count) in self.reactor.counts() {
            prom_scalar(out, &format!("bft_reactor_{key}_total"), help, "counter", count);
        }
        let ratio = self.reactor.frames_per_write();
        prom_scalar(
            out,
            "bft_reactor_frames_per_write",
            "Mean frames per write(2)",
            "gauge",
            ratio,
        );
    }
}

fn prom_escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prom_scalar(out: &mut String, name: &str, help: &str, kind: &str, value: impl Display) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
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
                Kind::Gauge.fold(&mut self.max_queue_depth, *depth);
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
            Event::LinkLogPeak { frames, .. } => Kind::Gauge.fold(&mut self.peak_link_log, *frames),
            Event::ReactorStats { stats } => self.reactor.add(stats),
            Event::EpochStarted { epoch } => {
                self.epochs_started += 1;
                self.open_epochs.insert((node, *epoch), at);
                let inflight = self.inflight_epochs.entry(node).or_insert(0);
                *inflight += 1;
                self.occupancy.add(*inflight as f64);
                Kind::Gauge.fold(&mut self.max_pipeline_occupancy, *inflight);
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

        let text = merged.render_prometheus();
        assert_eq!(text, sequential.render_prometheus());
        assert!(text.contains("\nbft_events_total 9\n"));
        assert!(text.contains("\nbft_max_queue_depth 9\n"));
    }

    /// Merge order is observable (sample order) only up to statistics:
    /// the Prometheus snapshot sorts/sums everything, but we still pin the
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
        let text = sink.render_prometheus();
        assert!(text.contains(r#"bft_messages_total{kind="echo/echo"} 2"#));
        assert!(text.contains(r#"bft_message_bytes_total{kind="echo/echo"} 32"#));
        assert!(text.contains("\nbft_delivered_total 1\n"));
    }
}
