//! The vote rule both reliable-broadcast instances share, written once:
//! echo once, on the designated sender's first accepted `Send`; turn Ready
//! once, on the instance's echo quorum or `f + 1` Readys; deliver once, on
//! `2f + 1` Readys — one Echo and one Ready counted per peer.

use crate::{RbcAction, RbcMessage};
use bft_obs::{Event as ObsEvent, Obs, RbcPhase, TraceCtx, TracePhase};
use bft_types::{Config, NodeBitset, NodeId};

/// The vote state of one instance at one node, over vote key `K`: the
/// payload for [`RbcInstance`](crate::RbcInstance), the Merkle root for
/// [`CodedInstance`](crate::CodedInstance). It owns the rule's flags,
/// dedup and Ready tally, changed only through its methods, and the
/// events and `rbc_echo` / `rbc_ready` spans that go with them. The
/// instances read `config` and `me`, and tally each echo
/// [`Votes::count_echo`] admits towards their own key.
///
/// Per-peer dedup happens *before* counting (the `*_peers` bitsets), so
/// the per-key supporter sets collapse to plain counts: honest runs keep
/// exactly one `(key, count)` entry, and the adversarial worst case one
/// entry per distinct key, probed by linear scan without hashing.
#[derive(Clone, Debug)]
pub(crate) struct Votes<K> {
    pub(crate) config: Config,
    pub(crate) me: NodeId,
    sender: NodeId,
    started: bool,
    sent_echo: bool,
    sent_ready: bool,
    delivered: bool,
    /// Peers whose echo has been counted, any key.
    echoed_peers: NodeBitset,
    /// Peers whose Ready has been counted, any key.
    readied_peers: NodeBitset,
    /// Distinct Ready keys and how many peers support each.
    readies: Vec<(K, usize)>,
    obs: Obs,
    /// `Debug`-rendered multiplexer tag carried on emitted events (empty
    /// for untagged instances).
    tag_label: String,
    /// Causal-trace identity of the carried payload, when the host
    /// protocol traces this instance (the ordering layer's batch RBCs).
    trace: Option<TraceCtx>,
    /// Whether this node's `rbc_echo` trace span is currently open.
    echo_span_open: bool,
    /// Whether this node's `rbc_ready` trace span is currently open.
    ready_span_open: bool,
}

impl<K: Clone + Eq> Votes<K> {
    pub(crate) fn new(config: Config, me: NodeId, sender: NodeId) -> Self {
        Votes {
            config,
            me,
            sender,
            started: false,
            sent_echo: false,
            sent_ready: false,
            delivered: false,
            echoed_peers: NodeBitset::new(config.n()),
            readied_peers: NodeBitset::new(config.n()),
            readies: Vec::new(),
            obs: Obs::disabled(),
            tag_label: String::new(),
            trace: None,
            echo_span_open: false,
            ready_span_open: false,
        }
    }

    /// Whether `from`'s echo has been counted, for any key.
    pub(crate) fn echoed(&self, from: NodeId) -> bool {
        self.echoed_peers.contains(from)
    }

    /// Counts `from`'s echo if it is that peer's first; says whether it was.
    pub(crate) fn count_echo(&mut self, from: NodeId) -> bool {
        self.echoed_peers.insert(from)
    }

    /// Attaches an observer; `tag_label` identifies this instance on the
    /// emitted events (the multiplexer passes the `Debug`-rendered tag).
    pub(crate) fn set_obs(&mut self, obs: Obs, tag_label: String) {
        self.obs = obs;
        self.tag_label = tag_label;
    }

    /// Attaches the causal-trace identity of this instance's payload
    /// (`None`: untraced). With an observer, the instance then spans its
    /// echo (`rbc_echo`), then its Ready up to delivery (`rbc_ready`).
    pub(crate) fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// Closes a still-open echo or ready span at the current observer
    /// time — called when the host garbage-collects the instance, so span
    /// conservation (`SpanStart` ⇔ `SpanEnd`) survives instances that
    /// never reached delivery.
    pub(crate) fn finish_spans(&mut self) {
        if std::mem::take(&mut self.echo_span_open) {
            self.end_span(TracePhase::RbcEcho);
        }
        if std::mem::take(&mut self.ready_span_open) {
            self.end_span(TracePhase::RbcReady);
        }
    }

    /// The start guard: true exactly once, at the designated sender. A
    /// repeat (or a non-sender) is ignored rather than equivocating.
    pub(crate) fn start(&mut self) -> bool {
        self.me == self.sender && !std::mem::replace(&mut self.started, true)
    }

    /// Whether a `Send` from `from` may trigger our echo: only the
    /// designated sender's, and only before we echoed.
    pub(crate) fn awaits_send(&self, from: NodeId) -> bool {
        from == self.sender && !self.sent_echo
    }

    /// Takes the echo step on the `Send` this node accepted: enters the
    /// Send and Echo phases and opens the `rbc_echo` span. The instance
    /// broadcasts its own echo message.
    pub(crate) fn echo(&mut self) {
        self.sent_echo = true;
        self.emit_phase(RbcPhase::Send);
        self.emit_phase(RbcPhase::Echo);
        self.echo_span_open = self.open_span(TracePhase::RbcEcho);
    }

    /// Broadcasts our Ready for `key` once, on the first quorum that
    /// justifies it: `via` records which quorum (echo, or `f + 1` Ready
    /// amplification) and `support` its size. `ready` builds the
    /// instance's Ready message.
    pub(crate) fn maybe_send_ready<P>(
        &mut self,
        key: &K,
        via: RbcPhase,
        support: usize,
        ready: impl Fn(&K) -> RbcMessage<P>,
        out: &mut Vec<RbcAction<P>>,
    ) {
        if self.sent_ready {
            return;
        }
        self.sent_ready = true;
        self.emit(|origin, tag| ObsEvent::RbcQuorumReached {
            origin,
            tag,
            phase: via,
            support: support as u64,
        });
        self.emit_phase(RbcPhase::Ready);
        if std::mem::take(&mut self.echo_span_open) {
            self.end_span(TracePhase::RbcEcho);
        }
        self.ready_span_open = self.open_span(TracePhase::RbcReady);
        out.push(RbcAction::Broadcast(ready(key)));
    }

    /// Counts `from`'s Ready for `key`, if it is that peer's first: the
    /// `f + 1`-th for a key sends our Ready for it, and from the
    /// `2f + 1`-th on the key is deliverable — the return value.
    pub(crate) fn on_ready<P>(
        &mut self,
        from: NodeId,
        key: &K,
        ready: impl Fn(&K) -> RbcMessage<P>,
        out: &mut Vec<RbcAction<P>>,
    ) -> bool {
        if !self.readied_peers.insert(from) {
            return false;
        }
        let count = bump(&mut self.readies, key);
        if count >= self.config.ready_threshold() {
            self.maybe_send_ready(key, RbcPhase::Ready, count, ready, out);
        }
        count >= self.config.decide_threshold()
    }

    /// Whether the instance has delivered.
    pub(crate) fn delivered(&self) -> bool {
        self.delivered
    }

    /// Marks the instance delivered — at most once, so the instance
    /// checks [`Votes::delivered`] first — and reports it, with its Ready
    /// support so far, closing the `rbc_ready` span.
    pub(crate) fn deliver(&mut self, key: &K) {
        self.delivered = true;
        self.emit(|origin, tag| {
            let support = self.readies.iter().find(|(k, _)| k == key).map_or(0, |&(_, c)| c);
            ObsEvent::RbcDelivered { origin, tag, support: support as u64 }
        });
        if std::mem::take(&mut self.ready_span_open) {
            self.end_span(TracePhase::RbcReady);
        }
    }

    /// Emits an instance event: `event` gets the designated sender and
    /// the tag label.
    pub(crate) fn emit(&self, event: impl FnOnce(NodeId, String) -> ObsEvent) {
        self.obs.emit(self.me, || event(self.sender, self.tag_label.clone()));
    }

    fn emit_phase(&self, phase: RbcPhase) {
        self.emit(|origin, tag| ObsEvent::RbcPhaseEntered { origin, tag, phase });
    }

    /// Opens this node's `phase` span if the instance is traced, and
    /// says whether it did.
    pub(crate) fn open_span(&self, phase: TracePhase) -> bool {
        let Some(ctx) = self.trace else { return false };
        self.obs.span_start(self.me, ctx, phase, ctx.root);
        true
    }

    /// Closes this node's `phase` span (one [`Votes::open_span`] opened).
    pub(crate) fn end_span(&self, phase: TracePhase) {
        if let Some(ctx) = self.trace {
            self.obs.span_end(self.me, ctx, phase);
        }
    }
}

/// Increments `key`'s supporter count, returning the new count. Linear
/// probe: honest executions have exactly one distinct key.
pub(crate) fn bump<K: Clone + Eq>(counts: &mut Vec<(K, usize)>, key: &K) -> usize {
    if let Some(entry) = counts.iter_mut().find(|(k, _)| k == key) {
        entry.1 += 1;
        return entry.1;
    }
    counts.push((key.clone(), 1));
    1
}
