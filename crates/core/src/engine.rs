//! The consensus state machine: validated three-step rounds over reliable
//! broadcast.

use crate::validation::Validator;
use crate::{StepPayload, StepTag, Wire};
use bft_coin::CoinScheme;
use bft_obs::{Event as ObsEvent, Obs, TraceCtx, TracePhase};
use bft_rbc::{RbcKind, RbcMux, RbcMuxAction};
use bft_types::{Config, NodeId, Round, Step, Value};

/// Tunables of a [`BrachaNode`].
#[derive(Clone, Copy, Debug)]
pub struct BrachaOptions {
    /// Enforce message validation (the paper's protocol). Setting this to
    /// `false` is the T8 ablation: reliable broadcast without validation,
    /// which loses safety under lying adversaries.
    pub validate: bool,
    /// Safety valve: halt (undecided) if this round is exceeded. Randomized
    /// termination has probability 1, but a worst-case experiment with a
    /// fixed adversarial coin would otherwise spin forever.
    pub max_rounds: u64,
    /// How many rounds to keep participating after deciding, so that
    /// slower nodes can still collect quorums. One round suffices for the
    /// protocol's proof; the default of two adds margin — and the margin is
    /// not cheap. Every post-decision round is a full round of traffic
    /// (three steps, each an `n`-way reliable broadcast per node), and when
    /// the inputs agree an instance decides in round 1: with the default it
    /// then runs rounds 2 *and* 3 in full, so the halting gadget is 2/3 of
    /// all agreement messages (that is the case on every `abbench`
    /// workload, `core.aba_rounds_mean` = 1). One round fewer is a third
    /// of the agreement traffic; a scratch run of `tcp10_sat` with
    /// `extra_rounds: 1` commits ≈ 1.6× the transactions per second
    /// (DESIGN.md "The n⁴ wall"). Lowering it is a protocol-parameter
    /// change with its own proof obligation, not a tuning knob.
    pub extra_rounds: u64,
}

impl Default for BrachaOptions {
    fn default() -> Self {
        BrachaOptions { validate: true, max_rounds: 10_000, extra_rounds: 2 }
    }
}

/// An instruction produced by a [`BrachaNode`] for its host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Send this wire message to every node (including ourselves).
    Broadcast(Wire),
    /// The node decided `value`. Emitted at most once.
    Decide(Value),
    /// The node has finished participating (decided plus
    /// [`BrachaOptions::extra_rounds`], or the `max_rounds` valve fired).
    Halt,
}

/// One node of Bracha's randomized Byzantine consensus protocol.
///
/// The node is a pure state machine: feed wire messages with
/// [`BrachaNode::on_message`], kick it off with [`BrachaNode::start`], and
/// execute the returned [`Transition`]s. Randomness comes only from the
/// injected [`CoinScheme`], so executions are reproducible.
///
/// See the [crate-level documentation](crate) for the protocol itself.
#[derive(Clone, Debug)]
pub struct BrachaNode<C> {
    config: Config,
    me: NodeId,
    coin: C,
    options: BrachaOptions,
    rbc: RbcMux<StepTag, StepPayload>,
    validator: Validator,
    round: Round,
    step: Step,
    estimate: Value,
    started: bool,
    decided: Option<Value>,
    decided_round: Option<Round>,
    halted: bool,
    obs: Obs,
    // Causal tracing is carried on its own handle so hosts can trace an
    // instance whose metrics stream is deliberately disabled (the
    // ordering layer's per-slot ABA nodes).
    trace_obs: Obs,
    trace: Option<TraceCtx>,
    round_span_open: Option<u64>,
    ready_entered_at: Option<u64>,
}

impl<C: CoinScheme> BrachaNode<C> {
    /// Creates a node with the given coin scheme and options.
    pub fn new(config: Config, me: NodeId, coin: C, options: BrachaOptions) -> Self {
        BrachaNode {
            config,
            me,
            coin,
            options,
            rbc: RbcMux::new(config, me, RbcKind::Bracha),
            validator: Validator::new(config, options.validate),
            round: Round::FIRST,
            step: Step::Initial,
            estimate: Value::Zero,
            started: false,
            decided: None,
            decided_round: None,
            halted: false,
            obs: Obs::disabled(),
            trace_obs: Obs::disabled(),
            trace: None,
            round_span_open: None,
            ready_entered_at: None,
        }
    }

    /// Attaches an observer; the node (and its RBC layer) emits
    /// consensus-level events through it. Attach before [`start`]
    /// (`BrachaNode::start`) so the whole run is covered.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.rbc.set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Attaches a causal-trace context: the node emits `aba_round[r]` and
    /// `coin_wait[r]` spans for this consensus instance through `obs`.
    /// Separate from [`with_obs`](BrachaNode::with_obs) so tracing works
    /// even when the metrics stream is disabled. Attach before
    /// [`start`](BrachaNode::start).
    pub fn set_trace(&mut self, obs: Obs, ctx: TraceCtx) {
        self.trace_obs = obs;
        self.trace = Some(ctx);
    }

    /// Closes any trace spans still open — call when the host winds the
    /// instance down mid-round (decided runs close their own spans).
    pub fn finish_spans(&mut self) {
        self.close_round_span();
    }

    fn open_round_span(&mut self) {
        // Rounds after the decision are the halting gadget (helping
        // slower nodes), not transaction latency: they are not traced,
        // which also keeps the per-instance round count in the trace
        // report at "rounds to decide".
        if self.decided.is_some() {
            return;
        }
        if let Some(ctx) = self.trace {
            let r = self.round.get();
            self.round_span_open = Some(r);
            self.trace_obs.span_start(self.me, ctx, TracePhase::AbaRound(r), ctx.root);
        }
    }

    fn close_round_span(&mut self) {
        if let Some(ctx) = self.trace {
            if let Some(r) = self.round_span_open.take() {
                self.trace_obs.span_end(self.me, ctx, TracePhase::AbaRound(r));
            }
        }
    }

    /// This node's identifier.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The decided value, once any.
    pub fn decided(&self) -> Option<Value> {
        self.decided
    }

    /// The round in which this node decided, if it has.
    pub fn decided_round(&self) -> Option<Round> {
        self.decided_round
    }

    /// The node's current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The node's current estimate.
    pub fn estimate(&self) -> Value {
        self.estimate
    }

    /// Whether the node has stopped participating.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The step the node is currently waiting in (diagnostics).
    pub fn step(&self) -> Step {
        self.step
    }

    /// Number of delivered-but-unvalidated payloads buffered for `round`
    /// (diagnostics).
    pub fn pending_count(&self, round: Round) -> usize {
        self.validator.pending_count(round)
    }

    /// Number of rounds with live validator state — bounded, since every
    /// new round frees the validator and RBC state of the rounds more than
    /// two behind it (diagnostics / leak detection).
    pub fn tracked_rounds(&self) -> usize {
        self.validator.round_count()
    }

    /// Starts the protocol with `input` as this node's initial value.
    ///
    /// May be called after messages have already been received (they are
    /// buffered); calling it twice is a no-op.
    pub fn start(&mut self, input: Value) -> Vec<Transition> {
        if self.started || self.halted {
            return Vec::new();
        }
        self.started = true;
        self.estimate = input;
        let round = self.round.get();
        self.obs.emit(self.me, || ObsEvent::RoundStarted { round });
        self.obs.emit(self.me, || ObsEvent::StepEntered { round, step: Step::Initial });
        self.open_round_span();
        let mut out = Vec::new();
        self.broadcast_current(StepPayload::Initial(input), &mut out);
        self.try_advance(&mut out);
        out
    }

    /// Processes one wire message from (authenticated) peer `from`.
    pub fn on_message(&mut self, from: NodeId, msg: &Wire) -> Vec<Transition> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        for action in self.rbc.on_message(from, msg) {
            match action {
                RbcMuxAction::Broadcast(wire) => out.push(Transition::Broadcast(wire)),
                // The ABA layer pins the default RbcKind::Bracha, which
                // never unicasts (two-byte payloads gain nothing from
                // fragmentation), so a Send can only appear if the mux is
                // misconfigured; dropping it is the safe response.
                RbcMuxAction::Send { .. } => {}
                RbcMuxAction::Deliver { sender, tag, payload } => {
                    // A Byzantine origin could broadcast a payload whose
                    // step contradicts the instance tag; reject it here so
                    // the validator's bookkeeping stays per-(round, step).
                    if payload.step() != tag.step {
                        self.obs.emit(self.me, || ObsEvent::MessageRejected {
                            origin: sender,
                            round: tag.round.get(),
                            reason: "payload step contradicts instance tag",
                        });
                        continue;
                    }
                    self.ingest_observed(tag.round, sender, payload);
                }
            }
        }
        self.try_advance(&mut out);
        out
    }

    /// Feeds a reliably-delivered payload to the validator and reports
    /// every message the validator newly accepted (a late arrival can
    /// unlock earlier buffered payloads, so one ingest may validate many).
    fn ingest_observed(&mut self, round: Round, from: NodeId, payload: StepPayload) {
        let newly = self.validator.ingest(round, from, payload);
        if self.obs.enabled() {
            for v in &newly {
                let (origin, round, payload) = (v.from, v.round.get(), v.payload);
                self.obs.emit(self.me, || ObsEvent::MessageValidated {
                    origin,
                    round,
                    step: payload.step(),
                    value: payload.value(),
                    flagged: payload.is_flagged(),
                });
            }
        }
    }

    /// Reliably broadcasts our payload for the current `(round, step)`.
    fn broadcast_current(&mut self, payload: StepPayload, out: &mut Vec<Transition>) {
        let tag = StepTag::new(self.round, self.step);
        for action in self.rbc.broadcast(tag, payload) {
            match action {
                RbcMuxAction::Broadcast(wire) => out.push(Transition::Broadcast(wire)),
                // See `on_message`: the ABA layer never runs the coded
                // (unicasting) RBC kind.
                RbcMuxAction::Send { .. } => {}
                RbcMuxAction::Deliver { sender, tag, payload } => {
                    self.ingest_observed(tag.round, sender, payload);
                }
            }
        }
    }

    /// Runs protocol transitions while the current step's quorum is
    /// satisfied.
    fn try_advance(&mut self, out: &mut Vec<Transition>) {
        if !self.started || self.halted {
            return;
        }
        let q = self.config.quorum();
        loop {
            let msgs = self.validator.validated(self.round, self.step);
            if msgs.len() < q {
                return;
            }
            let round = self.round.get();
            let (step, support) = (self.step, msgs.len() as u64);
            // Summarise the quorum prefix while the validator borrow is
            // live: the step rules only consume these four counters, so no
            // per-quorum allocation is needed.
            let (counts, dcounts) = summarize(&msgs[..q]);
            self.obs.emit(self.me, || ObsEvent::QuorumReached { round, step, support });
            match self.step {
                Step::Initial => {
                    self.estimate = weak_majority(counts, self.estimate);
                    self.step = Step::Echo;
                    self.obs.emit(self.me, || ObsEvent::StepEntered { round, step: Step::Echo });
                    self.broadcast_current(StepPayload::Echo(self.estimate), out);
                }
                Step::Echo => {
                    let m = self.config.majority_threshold();
                    let flagged = Value::BOTH.into_iter().find(|v| counts[v.index()] >= m);
                    if let Some(w) = flagged {
                        self.estimate = w;
                        let support = counts[w.index()] as u64;
                        self.obs.emit(self.me, || ObsEvent::ValueLocked {
                            round,
                            value: w,
                            support,
                        });
                    }
                    self.step = Step::Ready;
                    self.obs.emit(self.me, || ObsEvent::StepEntered { round, step: Step::Ready });
                    if self.trace.is_some() {
                        self.ready_entered_at = Some(self.trace_obs.now());
                    }
                    self.broadcast_current(
                        StepPayload::Ready { value: self.estimate, flagged: flagged.is_some() },
                        out,
                    );
                }
                Step::Ready => {
                    // At most one value can carry validated D-flags (quorum
                    // intersection); prefer One deterministically if the
                    // ablation (validation off) ever lets both through.
                    let [dzeros, dones] = dcounts;
                    let (w, d) =
                        if dones >= dzeros { (Value::One, dones) } else { (Value::Zero, dzeros) };
                    if d >= self.config.decide_threshold() {
                        self.estimate = w;
                        if self.decided.is_none() {
                            self.decided = Some(w);
                            self.decided_round = Some(self.round);
                            self.obs.emit(self.me, || ObsEvent::Decided { round, value: w });
                            out.push(Transition::Decide(w));
                        }
                    } else if d >= self.config.ready_threshold() {
                        self.estimate = w;
                        self.obs.emit(self.me, || ObsEvent::ValueLocked {
                            round,
                            value: w,
                            support: d as u64,
                        });
                    } else {
                        self.estimate = self.coin.flip(self.round.get());
                        let value = self.estimate;
                        let scheme = self.coin.name();
                        self.obs.emit(self.me, || ObsEvent::CoinFlipped { round, value, scheme });
                        if let Some(ctx) = (self.decided.is_none()).then_some(self.trace).flatten()
                        {
                            // The wait is only known once the coin fires:
                            // open the span retroactively at Ready-step
                            // entry and close it now (post-decision coin
                            // flips belong to the untraced halting
                            // gadget, like the round spans above).
                            let entered =
                                self.ready_entered_at.unwrap_or_else(|| self.trace_obs.now());
                            let parent = ctx.span(self.me, TracePhase::AbaRound(round));
                            self.trace_obs.span_start_at(
                                entered,
                                self.me,
                                ctx,
                                TracePhase::CoinWait(round),
                                parent,
                            );
                            self.trace_obs.span_end(self.me, ctx, TracePhase::CoinWait(round));
                        }
                    }
                    if !self.enter_next_round(out) {
                        return;
                    }
                }
            }
        }
    }

    /// Moves to the next round (or halts). Returns false when halted.
    fn enter_next_round(&mut self, out: &mut Vec<Transition>) -> bool {
        let completed = self.round.get();
        self.obs.emit(self.me, || ObsEvent::RoundCompleted { round: completed });
        self.close_round_span();
        self.ready_entered_at = None;
        let done_participating = self
            .decided_round
            .map(|dr| self.round.get() >= dr.get() + self.options.extra_rounds)
            .unwrap_or(false);
        let out_of_rounds = self.round.get() >= self.options.max_rounds;
        if done_participating || out_of_rounds {
            self.halted = true;
            // Every entry point returns before touching either from here
            // on, and a host may keep the halted node around (an epoch's
            // instances wait for its slowest one): free them now.
            self.rbc.retain(|_, _| false);
            self.validator.prune_before(Round::new(u64::MAX));
            out.push(Transition::Halt);
            return false;
        }
        self.round = self.round.next();
        self.step = Step::Initial;
        let round = self.round.get();
        self.obs.emit(self.me, || ObsEvent::RoundStarted { round });
        self.obs.emit(self.me, || ObsEvent::StepEntered { round, step: Step::Initial });
        self.open_round_span();
        // Free the validator and RBC state of rounds more than two behind.
        if let Some(keep_from) = self.round.get().checked_sub(2) {
            if keep_from >= 1 {
                let keep = Round::new(keep_from);
                self.validator.prune_before(keep);
                self.rbc.retain(|_, tag| tag.round >= keep);
            }
        }
        self.broadcast_current(StepPayload::Initial(self.estimate), out);
        true
    }
}

/// Per-value and per-value-D-flag counts of a quorum, in one pass.
fn summarize(quorum: &[(NodeId, StepPayload)]) -> ([usize; 2], [usize; 2]) {
    let mut counts = [0usize; 2];
    let mut dcounts = [0usize; 2];
    for &(_, p) in quorum {
        counts[p.value().index()] += 1;
        if p.is_flagged() {
            dcounts[p.value().index()] += 1;
        }
    }
    (counts, dcounts)
}

/// The value held by strictly more than half of the counted quorum, or
/// `tiebreak` on an exact tie (possible only for even quorum sizes).
fn weak_majority(counts: [usize; 2], tiebreak: Value) -> Value {
    let [zeros, ones] = counts;
    match ones.cmp(&zeros) {
        std::cmp::Ordering::Greater => Value::One,
        std::cmp::Ordering::Less => Value::Zero,
        std::cmp::Ordering::Equal => tiebreak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_coin::FixedCoin;

    fn cfg() -> Config {
        Config::new(4, 1).unwrap()
    }

    fn node(i: usize) -> BrachaNode<FixedCoin> {
        BrachaNode::new(
            cfg(),
            NodeId::new(i),
            FixedCoin::new(Value::Zero),
            BrachaOptions::default(),
        )
    }

    /// Starts every node with its input and returns the queued broadcasts
    /// with correct sender attribution.
    fn start_all(nodes: &mut [BrachaNode<FixedCoin>], inputs: &[Value]) -> Vec<(NodeId, Wire)> {
        let mut queue = Vec::new();
        for (n, &v) in nodes.iter_mut().zip(inputs) {
            let me = n.me();
            for t in n.start(v) {
                if let Transition::Broadcast(w) = t {
                    queue.push((me, w));
                }
            }
        }
        queue
    }

    /// Delivers every queued broadcast to every node until quiescence.
    /// Returns the decisions.
    fn pump(
        nodes: &mut [BrachaNode<FixedCoin>],
        mut queue: Vec<(NodeId, Wire)>,
    ) -> Vec<Option<Value>> {
        let mut safety = 0;
        while !queue.is_empty() {
            safety += 1;
            assert!(safety < 1_000_000, "pump did not quiesce");
            let (from, wire) = queue.remove(0);
            for node in nodes.iter_mut() {
                let ts = node.on_message(from, &wire);
                let me = node.me();
                for t in ts {
                    if let Transition::Broadcast(w) = t {
                        queue.push((me, w));
                    }
                }
            }
        }
        nodes.iter().map(|n| n.decided()).collect()
    }

    #[test]
    fn unanimous_inputs_decide_in_round_one() {
        let mut nodes: Vec<_> = (0..4).map(node).collect();
        let queue = start_all(&mut nodes, &[Value::One; 4]);
        let decisions = pump(&mut nodes, queue);
        assert!(decisions.iter().all(|d| *d == Some(Value::One)));
        for n in &nodes {
            assert_eq!(n.decided_round(), Some(Round::FIRST));
        }
    }

    #[test]
    fn validity_unanimous_zero() {
        let mut nodes: Vec<_> = (0..4).map(node).collect();
        let queue = start_all(&mut nodes, &[Value::Zero; 4]);
        let decisions = pump(&mut nodes, queue);
        assert!(decisions.iter().all(|d| *d == Some(Value::Zero)));
    }

    #[test]
    fn mixed_inputs_agree() {
        let mut nodes: Vec<_> = (0..4).map(node).collect();
        let queue = start_all(&mut nodes, &[Value::Zero, Value::Zero, Value::One, Value::One]);
        let decisions = pump(&mut nodes, queue);
        let first = decisions[0].expect("all must decide");
        assert!(decisions.iter().all(|d| *d == Some(first)));
    }

    #[test]
    fn start_is_idempotent_and_messages_buffer_before_start() {
        let mut a = node(0);
        let mut b = node(1);
        let ts = a.start(Value::One);
        assert!(!ts.is_empty());
        assert!(a.start(Value::Zero).is_empty(), "second start ignored");
        // b receives a's Send before starting: buffered, no crash.
        for t in ts {
            if let Transition::Broadcast(w) = t {
                let _ = b.on_message(NodeId::new(0), &w);
            }
        }
        assert_eq!(b.round(), Round::FIRST);
        assert!(!b.is_halted());
    }

    #[test]
    fn mismatched_tag_and_payload_step_is_rejected() {
        use bft_rbc::RbcMessage;
        let mut a = node(0);
        let _ = a.start(Value::One);
        // Byzantine node 1 reliably broadcasts an Echo payload under an
        // Initial tag; the delivery must be discarded. Drive the RBC to
        // delivery with 3 Readys.
        let tag = StepTag::new(Round::FIRST, Step::Initial);
        let payload = StepPayload::Echo(Value::One);
        for i in 1..4 {
            let _ = a.on_message(
                NodeId::new(i),
                &Wire { sender: NodeId::new(1), tag, msg: RbcMessage::Ready(payload) },
            );
        }
        // The echo payload must not appear among validated Initials...
        assert!(a
            .validator
            .validated(Round::FIRST, Step::Initial)
            .iter()
            .all(|&(from, _)| from != NodeId::new(1)));
        // ...nor among Echoes (wrong tag).
        assert!(a
            .validator
            .validated(Round::FIRST, Step::Echo)
            .iter()
            .all(|&(from, _)| from != NodeId::new(1)));
    }

    #[test]
    fn max_rounds_valve_halts_undecided() {
        // Fixed opposing coins + adversarially split inputs cannot decide
        // when... actually with 4 honest nodes inputs 2-2 and a fixed coin
        // the protocol *does* decide; to exercise the valve we set
        // max_rounds = 0 so the first round-end halts.
        let opts = BrachaOptions { max_rounds: 1, ..BrachaOptions::default() };
        let mut nodes: Vec<_> = (0..4)
            .map(|i| BrachaNode::new(cfg(), NodeId::new(i), FixedCoin::new(Value::Zero), opts))
            .collect();
        let queue = start_all(&mut nodes, &[Value::Zero, Value::Zero, Value::One, Value::One]);
        let _ = pump(&mut nodes, queue);
        for n in &nodes {
            assert!(n.is_halted(), "valve must halt node {}", n.me());
        }
    }

    #[test]
    fn decided_nodes_halt_after_extra_rounds() {
        let mut nodes: Vec<_> = (0..4).map(node).collect();
        let queue = start_all(&mut nodes, &[Value::One; 4]);
        let _ = pump(&mut nodes, queue);
        for n in &nodes {
            assert_eq!(n.decided(), Some(Value::One));
            assert!(n.is_halted(), "decided nodes must eventually halt");
            // Decided in round 1, participates through rounds 2 and 3.
            assert!(n.round().get() <= 1 + 2);
        }
    }

    #[test]
    fn traced_run_emits_balanced_round_spans() {
        use bft_obs::VecSink;
        let (tobs, sink) = Obs::new(VecSink::new());
        let mut nodes: Vec<_> = (0..4).map(node).collect();
        let ctx = TraceCtx::derive(NodeId::new(0), 0, 0);
        for n in nodes.iter_mut() {
            n.set_trace(tobs.clone(), ctx);
        }
        let queue = start_all(&mut nodes, &[Value::Zero, Value::Zero, Value::One, Value::One]);
        let decisions = pump(&mut nodes, queue);
        assert!(decisions.iter().all(|d| d.is_some()));
        for n in nodes.iter_mut() {
            n.finish_spans();
        }
        let events = sink.lock().take();
        assert!(!events.is_empty(), "traced nodes must emit spans");
        let (mut starts, mut ends) = (0usize, 0usize);
        for (_, _, e) in &events {
            match e {
                ObsEvent::SpanStart { trace, .. } => {
                    assert_eq!(*trace, ctx.trace);
                    starts += 1;
                }
                ObsEvent::SpanEnd { trace, .. } => {
                    assert_eq!(*trace, ctx.trace);
                    ends += 1;
                }
                other => panic!("trace handle must carry only spans, got {other:?}"),
            }
        }
        assert_eq!(starts, ends, "every span start needs a matching end");
    }

    #[test]
    fn weak_majority_tiebreak() {
        assert_eq!(weak_majority([1, 1], Value::One), Value::One);
        assert_eq!(weak_majority([1, 1], Value::Zero), Value::Zero);
        assert_eq!(weak_majority([1, 2], Value::Zero), Value::One);
    }

    #[test]
    fn summarize_counts_values_and_flags() {
        let q = [
            (NodeId::new(0), StepPayload::Ready { value: Value::One, flagged: true }),
            (NodeId::new(1), StepPayload::Ready { value: Value::One, flagged: false }),
            (NodeId::new(2), StepPayload::Ready { value: Value::Zero, flagged: true }),
        ];
        assert_eq!(summarize(&q), ([1, 2], [1, 1]));
    }
}
