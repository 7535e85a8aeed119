//! Causal tracing: deterministic trace/span identities, the span phase
//! taxonomy, and the online trace assembler.
//!
//! A **trace** follows one proposer's batch through the whole stack:
//! submission into `bft-order`, reliable broadcast of the batch, the
//! per-slot ABA instance, and the final total-order commit. Every phase
//! of that journey is a **span** — an interval `[start, end]` observed
//! at one node — and all spans of a batch share one trace id.
//!
//! Identities are *derived*, never negotiated: the trace id is a hash of
//! `(proposer, epoch, batch_seq)` and every span id is a hash of
//! `(trace, node, phase)`. Any node (and any offline analyzer) can
//! reconstruct the full causal tree without extra coordination, and two
//! same-seed simulator runs produce byte-identical trees.
//!
//! The phase taxonomy, in causal order:
//!
//! | phase | opens | closes |
//! |-------|-------|--------|
//! | `submit` | payload handed to the proposer | proposer appends the epoch to its log |
//! | `batch_wait` | payload handed to the proposer | batch proposed into an epoch |
//! | `rbc_echo` | node broadcasts its Echo | node broadcasts its Ready |
//! | `rbc_ready` | node broadcasts its Ready | RBC delivery (`2f + 1` Readys) |
//! | `aba_round` | ABA round started | ABA round completed |
//! | `coin_wait` | node entered the Ready step | the shared/local coin flipped |
//! | `commit` | epoch's ACS decided | epoch appended to the ordered log |
//! | `apply` | slot handed to the state machine | slot applied |
//!
//! `submit` is the **root** span: its duration is the transaction's
//! end-to-end latency at the proposer, and the critical-path report
//! attributes every instant of it to the deepest concurrently-open
//! descendant phase (residual time is reported as `other`), so the
//! per-phase breakdown sums exactly to the measured latency.

use crate::json::JsonValue;
use crate::{Event, Obs, Sink};
use bft_stats::{Histogram, Samples};
use bft_types::hash::Fnv64;
use bft_types::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// The phase a span measures. `AbaRound` and `CoinWait` carry the
/// 1-based ABA round number; the other phases occur once per
/// `(trace, node)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TracePhase {
    /// Root span: submission at the proposer → proposer's log append.
    Submit,
    /// Submission at the proposer → inclusion in a proposed batch.
    BatchWait,
    /// Echo broadcast → Ready broadcast, per node, for the batch RBC.
    RbcEcho,
    /// Ready broadcast → reliable delivery, per node, for the batch RBC.
    RbcReady,
    /// Delivery-quorum reached → payload reconstructed, per node, for a
    /// coded batch RBC (fragment-wait plus decode time).
    RbcReconstruct,
    /// One ABA round (started → completed) of the slot's ABA instance.
    AbaRound(u64),
    /// Ready-step entry → coin flip within one ABA round.
    CoinWait(u64),
    /// Epoch ACS decided → epoch appended to the ordered log.
    Commit,
    /// Slot handed to the replicated state machine → slot applied, per
    /// node. Instantaneous today (apply is synchronous with the log
    /// append) but anchors where the slot landed in application state.
    Apply,
}

impl TracePhase {
    /// Every phase kind in causal (and report) order, with round 0 for
    /// the per-round phases.
    pub const ALL: [TracePhase; 9] = [
        TracePhase::Submit,
        TracePhase::BatchWait,
        TracePhase::RbcEcho,
        TracePhase::RbcReady,
        TracePhase::RbcReconstruct,
        TracePhase::AbaRound(0),
        TracePhase::CoinWait(0),
        TracePhase::Commit,
        TracePhase::Apply,
    ];

    /// A stable snake_case label (the `phase` field of the JSONL schema).
    pub const fn name(self) -> &'static str {
        match self {
            TracePhase::Submit => "submit",
            TracePhase::BatchWait => "batch_wait",
            TracePhase::RbcEcho => "rbc_echo",
            TracePhase::RbcReady => "rbc_ready",
            TracePhase::RbcReconstruct => "rbc_reconstruct",
            TracePhase::AbaRound(_) => "aba_round",
            TracePhase::CoinWait(_) => "coin_wait",
            TracePhase::Commit => "commit",
            TracePhase::Apply => "apply",
        }
    }

    /// A stable numeric code, used in span-id derivation and as the
    /// tie-break priority of the critical-path sweep (later phases win).
    pub const fn code(self) -> u64 {
        match self {
            TracePhase::Submit => 0,
            TracePhase::BatchWait => 1,
            TracePhase::RbcEcho => 2,
            TracePhase::RbcReady => 3,
            // Appended after the original seven so existing span-id
            // derivations stay stable; causally it sits between RbcReady
            // and Commit.
            TracePhase::RbcReconstruct => 7,
            TracePhase::AbaRound(_) => 4,
            TracePhase::CoinWait(_) => 5,
            TracePhase::Commit => 6,
            // Appended after RbcReconstruct for the same stability
            // reason; causally it follows Commit.
            TracePhase::Apply => 8,
        }
    }

    /// The ABA round carried by the per-round phases; 0 otherwise.
    pub const fn round(self) -> u64 {
        match self {
            TracePhase::AbaRound(r) | TracePhase::CoinWait(r) => r,
            _ => 0,
        }
    }

    /// Reconstructs a phase from its JSONL `(phase, round)` fields — the
    /// inverse of [`TracePhase::name`] / [`TracePhase::round`].
    pub fn from_parts(name: &str, round: u64) -> Option<TracePhase> {
        match name {
            "submit" => Some(TracePhase::Submit),
            "batch_wait" => Some(TracePhase::BatchWait),
            "rbc_echo" => Some(TracePhase::RbcEcho),
            "rbc_ready" => Some(TracePhase::RbcReady),
            "rbc_reconstruct" => Some(TracePhase::RbcReconstruct),
            "aba_round" => Some(TracePhase::AbaRound(round)),
            "coin_wait" => Some(TracePhase::CoinWait(round)),
            "commit" => Some(TracePhase::Commit),
            "apply" => Some(TracePhase::Apply),
            _ => None,
        }
    }
}

impl fmt::Display for TracePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TracePhase::AbaRound(r) => write!(f, "aba_round[{r}]"),
            TracePhase::CoinWait(r) => write!(f, "coin_wait[{r}]"),
            other => f.write_str(other.name()),
        }
    }
}

/// FNV-1a over a word sequence — the hash the transport's frame
/// trailer uses, applied to little-endian word bytes.
fn fnv_words(words: &[u64]) -> u64 {
    let mut hash = Fnv64::new();
    for &word in words {
        hash.update_u64(word);
    }
    hash.finish()
}

/// The deterministic span id of `phase` observed at `node` within
/// `trace`.
pub fn span_id(trace: u64, node: NodeId, phase: TracePhase) -> u64 {
    fnv_words(&[trace, node.index() as u64, phase.code(), phase.round()])
}

/// The causal identity stamped on a proposer's batch: the trace id plus
/// the root (`submit`) span id every direct child span points at.
///
/// Both ids are pure functions of `(proposer, epoch, batch_seq)`, so any
/// component — and any offline analyzer — re-derives them locally;
/// nothing about the identity needs to travel for the tree to
/// reconstruct. (The transport still carries the trace id in its frame
/// envelope so captures can be correlated without decoding payloads.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceCtx {
    /// The trace id shared by every span of this batch's journey.
    pub trace: u64,
    /// The root (`submit`) span id, the `parent` of all direct children.
    pub root: u64,
}

impl TraceCtx {
    /// Derives the trace identity of `proposer`'s batch `batch_seq`
    /// proposed into `epoch`. Today each proposer submits exactly one
    /// batch per epoch, so callers pass `batch_seq == epoch`; the extra
    /// parameter keeps the id space ready for multi-batch epochs.
    pub fn derive(proposer: NodeId, epoch: u64, batch_seq: u64) -> TraceCtx {
        let trace = fnv_words(&[proposer.index() as u64, epoch, batch_seq]);
        TraceCtx { trace, root: span_id(trace, proposer, TracePhase::Submit) }
    }

    /// The span id of `phase` at `node` within this trace.
    pub fn span(&self, node: NodeId, phase: TracePhase) -> u64 {
        span_id(self.trace, node, phase)
    }
}

impl Obs {
    /// Emits a `SpanStart` for `phase` at `node` under `ctx`. `parent`
    /// is the enclosing span (the trace root for direct children, 0 for
    /// the root itself).
    pub fn span_start(&self, node: NodeId, ctx: TraceCtx, phase: TracePhase, parent: u64) {
        if !self.spans_enabled() {
            return;
        }
        self.emit(node, || Event::SpanStart {
            trace: ctx.trace,
            span: ctx.span(node, phase),
            parent,
            phase,
        });
    }

    /// [`Obs::span_start`] with an explicit timestamp — used to open a
    /// span retroactively once its outcome is known (e.g. `coin_wait`
    /// opens at Ready-step entry but is only emitted if a flip happens).
    pub fn span_start_at(
        &self,
        at: u64,
        node: NodeId,
        ctx: TraceCtx,
        phase: TracePhase,
        parent: u64,
    ) {
        if !self.spans_enabled() {
            return;
        }
        self.emit_at(at, node, || Event::SpanStart {
            trace: ctx.trace,
            span: ctx.span(node, phase),
            parent,
            phase,
        });
    }

    /// Emits the `SpanEnd` matching [`Obs::span_start`].
    pub fn span_end(&self, node: NodeId, ctx: TraceCtx, phase: TracePhase) {
        if !self.spans_enabled() {
            return;
        }
        self.emit(node, || Event::SpanEnd { trace: ctx.trace, span: ctx.span(node, phase) });
    }
}

/// One assembled span: the interval `phase` occupied at `node`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// The enclosing span's id (0 for the trace root).
    pub parent: u64,
    /// The observing node.
    pub node: NodeId,
    /// The measured phase.
    pub phase: TracePhase,
    /// Open timestamp.
    pub start: u64,
    /// Close timestamp; `None` while the span is still open.
    pub end: Option<u64>,
}

/// Assembles `SpanStart` / `SpanEnd` events into per-trace span trees
/// and computes the latency-attribution statistics over them.
///
/// Used online (behind [`TraceSink`]) and offline (`abtrace` feeds it
/// from a JSONL export); both paths produce identical trees for the
/// same event stream.
#[derive(Clone, Debug, Default)]
pub struct TraceAssembler {
    // Keyed for replay-stable iteration; span ids are node-scoped by
    // derivation, so (trace, span) is already unique across nodes.
    spans: BTreeMap<(u64, u64), SpanRecord>,
    duplicate_starts: u64,
    unmatched_ends: u64,
}

impl TraceAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event; non-span events are ignored.
    pub fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        match event {
            Event::SpanStart { trace, span, parent, phase } => {
                let key = (*trace, *span);
                if self.spans.contains_key(&key) {
                    self.duplicate_starts += 1;
                    return;
                }
                self.spans.insert(
                    key,
                    SpanRecord {
                        trace: *trace,
                        span: *span,
                        parent: *parent,
                        node,
                        phase: *phase,
                        start: at,
                        end: None,
                    },
                );
            }
            Event::SpanEnd { trace, span } => match self.spans.get_mut(&(*trace, *span)) {
                Some(record) if record.end.is_none() => record.end = Some(at),
                _ => self.unmatched_ends += 1,
            },
            _ => {}
        }
    }

    /// All assembled spans in `(trace, span)` order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.values()
    }

    /// Spans opened but never closed.
    pub fn open_spans(&self) -> usize {
        self.spans.values().filter(|s| s.end.is_none()).count()
    }

    /// `SpanStart`s re-emitted for an existing `(trace, span)`.
    pub fn duplicate_starts(&self) -> u64 {
        self.duplicate_starts
    }

    /// `SpanEnd`s with no matching open span.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// Distinct trace ids observed.
    pub fn trace_count(&self) -> usize {
        let mut count = 0usize;
        let mut last: Option<u64> = None;
        for &(trace, _) in self.spans.keys() {
            if last != Some(trace) {
                count += 1;
                last = Some(trace);
            }
        }
        count
    }

    /// Trace ids in ascending order.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.keys().map(|&(trace, _)| trace).collect();
        ids.dedup();
        ids
    }

    fn trace_spans(&self, trace: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.range((trace, 0)..=(trace, u64::MAX)).map(|(_, record)| record)
    }

    /// The root (`submit`) span of `trace`, if observed.
    pub fn root(&self, trace: u64) -> Option<&SpanRecord> {
        self.trace_spans(trace).find(|s| s.phase == TracePhase::Submit)
    }

    /// Completed-span durations grouped by phase name, in taxonomy
    /// order. Per-round phases collapse onto one entry.
    pub fn phase_durations(&self) -> Vec<(&'static str, Samples)> {
        let mut by_phase: BTreeMap<u64, Samples> = BTreeMap::new();
        for record in self.spans.values() {
            if let Some(end) = record.end {
                by_phase
                    .entry(record.phase.code())
                    .or_default()
                    .add(end.saturating_sub(record.start) as f64);
            }
        }
        TracePhase::ALL
            .iter()
            .map(|phase| (phase.name(), by_phase.remove(&phase.code()).unwrap_or_default()))
            .collect()
    }

    /// The critical-path breakdown of `trace` at its proposer: every
    /// instant of the root span attributed to the deepest concurrently
    /// open proposer-local descendant phase (`"other"` when none
    /// covers), so the parts sum exactly to the root duration.
    ///
    /// `None` when the trace has no completed root span.
    pub fn critical_path(&self, trace: u64) -> Option<Vec<(&'static str, u64)>> {
        let root = self.root(trace)?.clone();
        let root_end = root.end?;
        // Proposer-local descendant intervals, clamped to the root span.
        let covers: Vec<(u64, u64, TracePhase)> = self
            .trace_spans(trace)
            .filter(|s| s.node == root.node && s.phase != TracePhase::Submit)
            .filter_map(|s| {
                let end = s.end?.min(root_end);
                let start = s.start.max(root.start);
                (start < end).then_some((start, end, s.phase))
            })
            .collect();
        let mut cuts: Vec<u64> = covers
            .iter()
            .flat_map(|&(start, end, _)| [start, end])
            .chain([root.start, root_end])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for pair in cuts.windows(2) {
            let (Some(&lo), Some(&hi)) = (pair.first(), pair.last()) else { continue };
            // The deepest open phase: latest start wins, phase code
            // breaking ties (a commit beats the ABA round it overlaps).
            let deepest = covers
                .iter()
                .filter(|&&(start, end, _)| start <= lo && end >= hi)
                .max_by_key(|&&(start, _, phase)| (start, phase.code(), phase.round()));
            let name = deepest.map_or("other", |&(_, _, phase)| phase.name());
            *by_name.entry(name).or_insert(0) += hi - lo;
        }
        let mut breakdown: Vec<(&'static str, u64)> = TracePhase::ALL
            .iter()
            .filter(|phase| **phase != TracePhase::Submit)
            .filter_map(|phase| by_name.remove(phase.name()).map(|ticks| (phase.name(), ticks)))
            .collect();
        if let Some(other) = by_name.remove("other") {
            breakdown.push(("other", other));
        }
        Some(breakdown)
    }

    /// ABA rounds run per `(trace, node)` instance — the distribution
    /// the O(1)-expected-rounds claim is about.
    pub fn aba_round_counts(&self) -> Histogram {
        let mut per_instance: BTreeMap<(u64, NodeId), u64> = BTreeMap::new();
        for record in self.spans.values() {
            if let TracePhase::AbaRound(_) = record.phase {
                *per_instance.entry((record.trace, record.node)).or_insert(0) += 1;
            }
        }
        per_instance.values().copied().collect()
    }

    /// The canonical tree rendering: one sorted line per span, with
    /// timestamps — byte-identical across same-seed simulator runs.
    pub fn canonical_lines(&self) -> Vec<String> {
        self.spans
            .values()
            .map(|s| {
                format!(
                    "trace={:016x} span={:016x} parent={:016x} node={} phase={} start={} end={}",
                    s.trace,
                    s.span,
                    s.parent,
                    s.node.index(),
                    s.phase,
                    s.start,
                    s.end.map_or_else(|| "open".to_string(), |e| e.to_string()),
                )
            })
            .collect()
    }

    /// The timestamp-free tree shape: per trace, the sorted set of
    /// `(node, phase)` pairs — the substrate-independent skeleton used
    /// by the sim/runtime parity test.
    pub fn phase_sets(&self) -> BTreeMap<u64, Vec<(usize, String)>> {
        let mut out: BTreeMap<u64, Vec<(usize, String)>> = BTreeMap::new();
        for s in self.spans.values() {
            out.entry(s.trace).or_default().push((s.node.index(), s.phase.to_string()));
        }
        for set in out.values_mut() {
            set.sort();
            set.dedup();
        }
        out
    }

    /// The deterministic `"tracing"` section of the bench report:
    /// per-phase p50/p99, the summed critical-path breakdown, and the
    /// per-instance ABA round-count distribution.
    pub fn to_json(&self) -> JsonValue {
        let traces = self.trace_ids();
        let mut complete = 0u64;
        let mut path_total = 0u64;
        let mut path_by_phase: BTreeMap<&'static str, u64> = BTreeMap::new();
        for &trace in &traces {
            if let Some(breakdown) = self.critical_path(trace) {
                complete += 1;
                for (name, ticks) in breakdown {
                    path_total += ticks;
                    *path_by_phase.entry(name).or_insert(0) += ticks;
                }
            }
        }
        let phases: Vec<JsonValue> = self
            .phase_durations()
            .into_iter()
            .map(|(name, mut samples)| {
                JsonValue::Obj(vec![
                    ("phase".into(), JsonValue::str(name)),
                    ("count".into(), JsonValue::U64(samples.len() as u64)),
                    ("p50".into(), JsonValue::F64(samples.percentile(50.0).unwrap_or(0.0))),
                    ("p99".into(), JsonValue::F64(samples.percentile(99.0).unwrap_or(0.0))),
                    ("max".into(), JsonValue::F64(samples.max().unwrap_or(0.0))),
                ])
            })
            .collect();
        let path: Vec<JsonValue> = path_by_phase
            .iter()
            .map(|(name, ticks)| {
                JsonValue::Obj(vec![
                    ("phase".into(), JsonValue::str(*name)),
                    ("ticks".into(), JsonValue::U64(*ticks)),
                ])
            })
            .collect();
        let rounds: Vec<JsonValue> = self
            .aba_round_counts()
            .iter()
            .map(|(rounds, instances)| {
                JsonValue::Obj(vec![
                    ("rounds".into(), JsonValue::U64(rounds)),
                    ("instances".into(), JsonValue::U64(instances)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("traces".into(), JsonValue::U64(traces.len() as u64)),
            ("complete".into(), JsonValue::U64(complete)),
            ("open_spans".into(), JsonValue::U64(self.open_spans() as u64)),
            ("anomalies".into(), JsonValue::U64(self.duplicate_starts + self.unmatched_ends)),
            ("phase_latency".into(), JsonValue::Arr(phases)),
            (
                "critical_path".into(),
                JsonValue::Obj(vec![
                    ("total_ticks".into(), JsonValue::U64(path_total)),
                    ("phases".into(), JsonValue::Arr(path)),
                ]),
            ),
            ("aba_rounds_per_instance".into(), JsonValue::Arr(rounds)),
        ])
    }

    /// The human-readable latency-attribution report printed by
    /// `abtrace`.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let traces = self.trace_ids();
        out.push_str(&format!(
            "traces: {}   open spans: {}   anomalies: {}\n\n",
            traces.len(),
            self.open_spans(),
            self.duplicate_starts + self.unmatched_ends,
        ));
        out.push_str("per-phase latency (ticks/us)\n");
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>10} {:>10}\n",
            "phase", "count", "p50", "p99", "max"
        ));
        for (name, mut samples) in self.phase_durations() {
            out.push_str(&format!(
                "{:<12} {:>8} {:>10.1} {:>10.1} {:>10.1}\n",
                name,
                samples.len(),
                samples.percentile(50.0).unwrap_or(0.0),
                samples.percentile(99.0).unwrap_or(0.0),
                samples.max().unwrap_or(0.0),
            ));
        }

        let mut complete = 0u64;
        let mut path_total = 0u64;
        let mut by_phase: BTreeMap<&'static str, u64> = BTreeMap::new();
        for &trace in &traces {
            if let Some(breakdown) = self.critical_path(trace) {
                complete += 1;
                for (name, ticks) in breakdown {
                    path_total += ticks;
                    *by_phase.entry(name).or_insert(0) += ticks;
                }
            }
        }
        out.push_str(&format!(
            "\ncritical path (submit -> commit), {complete} complete traces, \
             total {path_total}\n"
        ));
        for (name, ticks) in &by_phase {
            let share =
                if path_total > 0 { *ticks as f64 * 100.0 / path_total as f64 } else { 0.0 };
            out.push_str(&format!("{name:<12} {ticks:>10}  {share:>5.1}%\n"));
        }

        let rounds = self.aba_round_counts();
        out.push_str(&format!(
            "\nABA rounds per instance (mean {:.2}, expected O(1))\n",
            rounds.mean()
        ));
        for (value, count) in rounds.iter() {
            out.push_str(&format!("{value:>6} rounds | {count} instances\n"));
        }
        out
    }
}

/// A [`Sink`] that assembles the span stream online. Compose it behind a
/// [`crate::Tee`] to collect metrics and traces from one run.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    assembler: TraceAssembler,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled trace trees so far.
    pub fn assembler(&self) -> &TraceAssembler {
        &self.assembler
    }

    /// Consumes the sink, returning the assembler.
    pub fn into_assembler(self) -> TraceAssembler {
        self.assembler
    }
}

impl Sink for TraceSink {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        self.assembler.on_event(at, node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn ids_are_deterministic_and_distinct() {
        let a = TraceCtx::derive(node(1), 3, 3);
        let b = TraceCtx::derive(node(1), 3, 3);
        assert_eq!(a, b);
        assert_ne!(a.trace, TraceCtx::derive(node(2), 3, 3).trace);
        assert_ne!(a.trace, TraceCtx::derive(node(1), 4, 4).trace);
        // Span ids separate by node, phase and round.
        assert_ne!(a.span(node(0), TracePhase::RbcEcho), a.span(node(1), TracePhase::RbcEcho));
        assert_ne!(a.span(node(0), TracePhase::RbcEcho), a.span(node(0), TracePhase::RbcReady));
        assert_ne!(
            a.span(node(0), TracePhase::AbaRound(1)),
            a.span(node(0), TracePhase::AbaRound(2))
        );
        assert_eq!(a.root, a.span(node(1), TracePhase::Submit));
    }

    #[test]
    fn phase_parts_round_trip() {
        for phase in [
            TracePhase::Submit,
            TracePhase::BatchWait,
            TracePhase::RbcEcho,
            TracePhase::RbcReady,
            TracePhase::AbaRound(4),
            TracePhase::CoinWait(2),
            TracePhase::Commit,
        ] {
            assert_eq!(TracePhase::from_parts(phase.name(), phase.round()), Some(phase));
        }
        assert_eq!(TracePhase::from_parts("nope", 0), None);
    }

    #[test]
    fn assembler_matches_starts_and_ends() {
        let ctx = TraceCtx::derive(node(0), 0, 0);
        let mut asm = TraceAssembler::new();
        let start = Event::SpanStart {
            trace: ctx.trace,
            span: ctx.span(node(0), TracePhase::RbcEcho),
            parent: ctx.root,
            phase: TracePhase::RbcEcho,
        };
        let end = Event::SpanEnd { trace: ctx.trace, span: ctx.span(node(0), TracePhase::RbcEcho) };
        asm.on_event(3, node(0), &start);
        assert_eq!(asm.open_spans(), 1);
        asm.on_event(7, node(0), &end);
        assert_eq!(asm.open_spans(), 0);
        // Duplicates and orphans are counted, not panicked over.
        asm.on_event(8, node(0), &start);
        asm.on_event(9, node(0), &end);
        assert_eq!(asm.duplicate_starts(), 1);
        assert_eq!(asm.unmatched_ends(), 1);
        let spans: Vec<&SpanRecord> = asm.spans().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans.first().map(|s| (s.start, s.end)), Some((3, Some(7))));
    }

    /// Builds a small single-node trace: root [0, 100], batch_wait
    /// [0, 10], rbc phases [10, 40], two ABA rounds [40, 80] with a coin
    /// wait, commit [90, 100]; [80, 90] is uncovered.
    fn scripted_trace(asm: &mut TraceAssembler) -> u64 {
        let p = node(0);
        let ctx = TraceCtx::derive(p, 0, 0);
        let mut open = |at: u64, phase: TracePhase, parent: u64| {
            asm.on_event(
                at,
                p,
                &Event::SpanStart { trace: ctx.trace, span: ctx.span(p, phase), parent, phase },
            );
        };
        open(0, TracePhase::Submit, 0);
        open(0, TracePhase::BatchWait, ctx.root);
        open(10, TracePhase::RbcEcho, ctx.root);
        open(25, TracePhase::RbcReady, ctx.root);
        open(40, TracePhase::AbaRound(1), ctx.root);
        open(50, TracePhase::CoinWait(1), ctx.span(p, TracePhase::AbaRound(1)));
        open(60, TracePhase::AbaRound(2), ctx.root);
        open(90, TracePhase::Commit, ctx.root);
        let mut close = |at: u64, phase: TracePhase| {
            asm.on_event(at, p, &Event::SpanEnd { trace: ctx.trace, span: ctx.span(p, phase) });
        };
        close(10, TracePhase::BatchWait);
        close(25, TracePhase::RbcEcho);
        close(40, TracePhase::RbcReady);
        close(60, TracePhase::AbaRound(1));
        close(55, TracePhase::CoinWait(1));
        close(80, TracePhase::AbaRound(2));
        close(100, TracePhase::Commit);
        close(100, TracePhase::Submit);
        ctx.trace
    }

    #[test]
    fn critical_path_sums_to_root_duration() {
        let mut asm = TraceAssembler::new();
        let trace = scripted_trace(&mut asm);
        assert_eq!(asm.open_spans(), 0);
        let breakdown = asm.critical_path(trace).expect("root completed");
        let total: u64 = breakdown.iter().map(|&(_, t)| t).sum();
        assert_eq!(total, 100, "attribution must cover the whole root span: {breakdown:?}");
        let by: BTreeMap<&str, u64> = breakdown.iter().copied().collect();
        assert_eq!(by.get("batch_wait"), Some(&10));
        assert_eq!(by.get("rbc_echo"), Some(&15));
        assert_eq!(by.get("rbc_ready"), Some(&15));
        // Coin wait [50, 55] is deeper than ABA round 1 [40, 60];
        // round 2 [60, 80] is deeper than round 1's tail.
        assert_eq!(by.get("coin_wait"), Some(&5));
        assert_eq!(by.get("aba_round"), Some(&35));
        assert_eq!(by.get("commit"), Some(&10));
        assert_eq!(by.get("other"), Some(&10));
    }

    #[test]
    fn aba_round_histogram_counts_rounds_per_instance() {
        let mut asm = TraceAssembler::new();
        scripted_trace(&mut asm);
        let h = asm.aba_round_counts();
        assert_eq!(h.count(), 1);
        assert_eq!(h.count_at(2), 1);
    }

    #[test]
    fn json_and_report_are_stable() {
        let mut asm = TraceAssembler::new();
        scripted_trace(&mut asm);
        let json = asm.to_json().to_string();
        assert!(json.contains(r#""traces":1"#));
        assert!(json.contains(r#""complete":1"#));
        assert!(json.contains(r#""anomalies":0"#));
        assert!(json.contains(r#""phase":"commit""#));
        let report = asm.render_report();
        assert!(report.contains("critical path"));
        assert!(report.contains("commit"));
        assert_eq!(asm.to_json().to_string(), json, "re-rendering is pure");
    }

    #[test]
    fn canonical_lines_and_phase_sets() {
        let mut a = TraceAssembler::new();
        let mut b = TraceAssembler::new();
        scripted_trace(&mut a);
        scripted_trace(&mut b);
        assert_eq!(a.canonical_lines(), b.canonical_lines());
        let sets = a.phase_sets();
        assert_eq!(sets.len(), 1);
        let Some(set) = sets.values().next() else { panic!("one trace") };
        assert!(set.contains(&(0, "submit".to_string())));
        assert!(set.contains(&(0, "aba_round[2]".to_string())));
    }
}
