//! Multiplexing many reliable-broadcast instances over one channel.
//!
//! Higher-level protocols run one RBC instance per (designated sender,
//! application tag). In Bracha's consensus, for example, the tag is the
//! (round, step) pair, so each node reliably broadcasts exactly one payload
//! per protocol step and equivocation is structurally impossible.

use crate::{CodedInstance, CodedPayload, RbcAction, RbcInstance, RbcMessage};
use bft_obs::{Obs, TraceCtx};
use bft_types::wire::{Codec, DecodeError, Reader};
use bft_types::{Config, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// Which reliable-broadcast implementation an instance runs, fixed when
/// the mux or process that holds it is built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RbcKind {
    /// Bracha's original full-payload Send/Echo/Ready protocol.
    #[default]
    Bracha,
    /// The erasure-coded variant: fragment unicast plus fragment echoes,
    /// O(n·B) bytes on the wire instead of O(n²·B).
    Coded,
}

impl RbcKind {
    /// Stable lowercase label (CLI flags, bench reports).
    pub const fn label(self) -> &'static str {
        match self {
            RbcKind::Bracha => "bracha",
            RbcKind::Coded => "coded",
        }
    }

    /// Parses the [`RbcKind::label`] form.
    pub fn parse(s: &str) -> Option<RbcKind> {
        match s {
            "bracha" => Some(RbcKind::Bracha),
            "coded" => Some(RbcKind::Coded),
            _ => None,
        }
    }
}

impl fmt::Display for RbcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One instance of either implementation, behind a uniform surface: the
/// runtime-selected instance [`RbcMux`] and [`RbcProcess`](crate::RbcProcess)
/// hold. Dispatch is a `match`, static in each arm.
///
/// The coded state is boxed: it is the larger variant, and the agreement
/// layer keeps thousands of Bracha instances live per epoch in maps of
/// this enum — they must not pay for fragment bookkeeping they never use.
/// The Bracha state stays inline for the same reason: boxing the common
/// variant would cost those instances an allocation and a hop each.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Inst<P> {
    Bracha(RbcInstance<P>),
    Coded(Box<CodedInstance<P>>),
}

impl<P> Inst<P>
where
    P: CodedPayload + Clone + Eq + fmt::Debug,
{
    pub(crate) fn new(kind: RbcKind, config: Config, me: NodeId, sender: NodeId) -> Self {
        match kind {
            RbcKind::Bracha => Inst::Bracha(RbcInstance::new(config, me, sender)),
            RbcKind::Coded => Inst::Coded(Box::new(CodedInstance::new(config, me, sender))),
        }
    }

    /// Attaches an observer, `tag_label` naming the instance on its events,
    /// and the payload's causal-trace identity when there is one.
    fn observe(&mut self, obs: Obs, tag_label: String, trace: Option<TraceCtx>) {
        match self {
            Inst::Bracha(i) => {
                i.votes.set_obs(obs, tag_label);
                i.votes.set_trace(trace);
            }
            Inst::Coded(i) => {
                i.votes.set_obs(obs, tag_label);
                i.votes.set_trace(trace);
            }
        }
    }

    pub(crate) fn on_message(&mut self, from: NodeId, msg: &RbcMessage<P>) -> Vec<RbcAction<P>> {
        match self {
            Inst::Bracha(i) => i.on_message(from, msg),
            Inst::Coded(i) => i.on_message(from, msg),
        }
    }

    pub(crate) fn start(&mut self, payload: P) -> Vec<RbcAction<P>> {
        match self {
            Inst::Bracha(i) => i.start(payload),
            Inst::Coded(i) => i.start(payload),
        }
    }

    fn finish_spans(&mut self) {
        match self {
            Inst::Bracha(i) => i.votes.finish_spans(),
            Inst::Coded(i) => i.finish_spans(),
        }
    }

    fn buffered_fragment_bytes(&self) -> usize {
        match self {
            Inst::Bracha(_) => 0,
            Inst::Coded(i) => i.buffered_fragment_bytes(),
        }
    }
}

/// A multiplexed instance message: the inner RBC message plus the instance
/// coordinates (designated sender and application tag).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RbcMuxMessage<T, P> {
    /// The designated sender of the instance this message belongs to.
    pub sender: NodeId,
    /// The application tag of the instance.
    pub tag: T,
    /// The inner protocol message.
    pub msg: RbcMessage<P>,
}

impl<T: Codec, P: Codec> Codec for RbcMuxMessage<T, P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.tag.encode(out);
        self.msg.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let sender = NodeId::decode(r)?;
        let tag = T::decode(r)?;
        let msg = RbcMessage::decode(r)?;
        Ok(RbcMuxMessage { sender, tag, msg })
    }
}

impl<T: fmt::Display, P: fmt::Display> fmt::Display for RbcMuxMessage<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}#{}] {}", self.sender, self.tag, self.msg)
    }
}

/// An instruction produced by the [`RbcMux`] for its host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbcMuxAction<T, P> {
    /// Send this multiplexed message to every node (including ourselves).
    Broadcast(RbcMuxMessage<T, P>),
    /// Send this multiplexed message to exactly one node — coded-variant
    /// fragment dissemination.
    Send {
        /// The recipient.
        to: NodeId,
        /// The message to deliver to `to` alone.
        msg: RbcMuxMessage<T, P>,
    },
    /// Instance `(sender, tag)` reliably delivered `payload`.
    Deliver {
        /// The designated sender of the delivering instance.
        sender: NodeId,
        /// The application tag of the delivering instance.
        tag: T,
        /// The delivered payload.
        payload: P,
    },
}

/// A collection of reliable-broadcast instances keyed by
/// `(designated sender, tag)`, sharing one node identity. A delivered
/// payload leaves only in [`RbcMuxAction::Deliver`]: no instance keeps it.
///
/// # Example
///
/// ```
/// use bft_rbc::{RbcKind, RbcMux, RbcMuxAction};
/// use bft_types::{Config, NodeId};
///
/// # fn main() -> Result<(), bft_types::ConfigError> {
/// let cfg = Config::new(4, 1)?;
/// let me = NodeId::new(2);
/// let mut mux: RbcMux<u64, String> = RbcMux::new(cfg, me, RbcKind::Bracha);
///
/// // Reliably broadcast our round-1 payload.
/// let actions = mux.broadcast(1, "proposal".to_string());
/// assert_eq!(actions.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RbcMux<T, P> {
    config: Config,
    me: NodeId,
    /// Which implementation every instance runs. All nodes of a system
    /// must build their muxes with the same kind.
    kind: RbcKind,
    // Ordered (not hashed) so that `retain` and `finish_spans` visit
    // instances in a replay-stable order.
    instances: BTreeMap<(NodeId, T), Inst<P>>,
    obs: Obs,
    // A plain fn pointer (not a boxed closure) so the mux keeps its
    // derived `Clone`/`Debug`; hosts that need state derive the trace
    // context from the instance coordinates alone.
    tracer: Option<fn(NodeId, &T) -> Option<TraceCtx>>,
}

impl<T, P> RbcMux<T, P>
where
    T: Clone + Ord + fmt::Debug,
    P: CodedPayload + Clone + Eq + fmt::Debug,
{
    /// Creates an empty multiplexer for node `me` whose instances run
    /// `kind`.
    pub fn new(config: Config, me: NodeId, kind: RbcKind) -> Self {
        RbcMux { config, me, kind, instances: BTreeMap::new(), obs: Obs::disabled(), tracer: None }
    }

    /// Attaches an observer. Instances created from here on emit RBC
    /// events tagged with their `Debug`-rendered tag; attach before the
    /// first message flows (existing instances are not retrofitted).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Registers a trace-context derivation: instances created from here
    /// on (while an observer is attached) emit `rbc_echo` / `rbc_ready`
    /// spans under the context the tracer derives from the instance's
    /// `(designated sender, tag)` coordinates. Returning `None` leaves an
    /// instance untraced.
    pub fn set_tracer(&mut self, tracer: fn(NodeId, &T) -> Option<TraceCtx>) {
        self.tracer = Some(tracer);
    }

    /// Number of instances with any state.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Whether any instance under `tag` has state, whoever its designated
    /// sender: someone has broadcast, or sent this node a message, under
    /// that tag.
    pub fn has_tag(&self, tag: &T) -> bool {
        self.config.nodes().any(|sender| self.instances.contains_key(&(sender, tag.clone())))
    }

    fn instance(&mut self, sender: NodeId, tag: T) -> &mut Inst<P> {
        let (config, me, kind, tracer, obs) =
            (self.config, self.me, self.kind, self.tracer, &self.obs);
        self.instances.entry((sender, tag)).or_insert_with_key(|(sender, tag)| {
            let mut inst = Inst::new(kind, config, me, *sender);
            if obs.enabled() {
                inst.observe(obs.clone(), format!("{tag:?}"), tracer.and_then(|t| t(*sender, tag)));
            }
            inst
        })
    }

    /// Fragment bytes buffered across all coded instances — held until an
    /// instance delivers (or [`RbcMux::retain`] collects an undelivered
    /// one); memory-bound tests watch the peak.
    pub fn buffered_fragment_bytes(&self) -> usize {
        self.instances.values().map(Inst::buffered_fragment_bytes).sum()
    }

    /// Starts reliably broadcasting `payload` under `tag`, with this node
    /// as the designated sender.
    pub fn broadcast(&mut self, tag: T, payload: P) -> Vec<RbcMuxAction<T, P>> {
        let me = self.me;
        let actions = self.instance(me, tag.clone()).start(payload);
        Self::lift(me, tag, actions)
    }

    /// Processes one multiplexed message from (authenticated) peer `from`.
    ///
    /// The message arrives by reference (transports share one allocation
    /// across all recipients of a broadcast); the mux clones only the tag
    /// and whatever payload pieces the instance stores.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: &RbcMuxMessage<T, P>,
    ) -> Vec<RbcMuxAction<T, P>> {
        let sender = msg.sender;
        if !self.config.contains(sender) {
            return Vec::new();
        }
        let actions = self.instance(sender, msg.tag.clone()).on_message(from, &msg.msg);
        Self::lift(sender, msg.tag.clone(), actions)
    }

    /// Drops all instance state for instances matching `predicate` —
    /// garbage collection for long-lived protocols (e.g. consensus rounds
    /// that have completed).
    pub fn retain(&mut self, mut predicate: impl FnMut(NodeId, &T) -> bool) {
        self.instances.retain(|(sender, tag), inst| {
            let keep = predicate(*sender, tag);
            if !keep {
                // Close any trace spans the instance still has open so a
                // garbage-collected (e.g. never-delivered) instance does
                // not leak dangling `SpanStart`s into the trace export.
                inst.finish_spans();
            }
            keep
        });
    }

    /// Closes any trace spans still open across all instances — call when
    /// the host shuts the protocol down while instances are mid-flight.
    pub fn finish_spans(&mut self) {
        for inst in self.instances.values_mut() {
            inst.finish_spans();
        }
    }

    fn lift(sender: NodeId, tag: T, actions: Vec<RbcAction<P>>) -> Vec<RbcMuxAction<T, P>> {
        actions
            .into_iter()
            .map(|a| match a {
                RbcAction::Broadcast(msg) => {
                    RbcMuxAction::Broadcast(RbcMuxMessage { sender, tag: tag.clone(), msg })
                }
                RbcAction::Send { to, msg } => {
                    RbcMuxAction::Send { to, msg: RbcMuxMessage { sender, tag: tag.clone(), msg } }
                }
                RbcAction::Deliver(payload) => {
                    RbcMuxAction::Deliver { sender, tag: tag.clone(), payload }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::new(4, 1).unwrap()
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Runs a full 4-node broadcast "by hand" through four muxes, with a
    /// simple synchronous message pump, and checks everyone delivers.
    #[test]
    fn four_muxes_deliver_the_senders_payload() {
        let mut muxes: Vec<RbcMux<u8, String>> =
            (0..4).map(|i| RbcMux::new(cfg(), n(i), RbcKind::Bracha)).collect();
        let mut inbox: Vec<(NodeId, RbcMuxMessage<u8, String>)> = Vec::new();

        fn dispatch(
            from: NodeId,
            actions: Vec<RbcMuxAction<u8, String>>,
            inbox: &mut Vec<(NodeId, RbcMuxMessage<u8, String>)>,
            delivered: &mut Vec<(NodeId, String)>,
        ) {
            for a in actions {
                match a {
                    RbcMuxAction::Broadcast(m) => {
                        for _ in 0..4 {
                            inbox.push((from, m.clone()));
                        }
                    }
                    RbcMuxAction::Deliver { payload, .. } => delivered.push((from, payload)),
                    RbcMuxAction::Send { .. } => panic!("bracha never unicasts"),
                }
            }
        }

        let mut delivered = Vec::new();
        let start = muxes[0].broadcast(9, "m".to_string());
        dispatch(n(0), start, &mut inbox, &mut delivered);

        // Pump: each broadcast fans out to all four muxes (the `to` target
        // rotates through 0..4 in push order).
        let mut target = 0usize;
        while let Some((from, msg)) = inbox.pop() {
            let acts = muxes[target % 4].on_message(from, &msg);
            let at = n(target % 4);
            target += 1;
            dispatch(at, acts, &mut inbox, &mut delivered);
        }

        let mut nodes: Vec<usize> = delivered.iter().map(|(id, _)| id.index()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes, vec![0, 1, 2, 3], "every node must deliver");
        assert!(delivered.iter().all(|(_, p)| p == "m"));
    }

    /// The same pump, but over coded muxes: unicasts go to their target,
    /// broadcasts fan out to everyone, and delivery frees the fragments
    /// before any GC, which then drops the instances.
    #[test]
    fn four_coded_muxes_free_fragments_at_delivery() {
        let payload: String = "x".repeat(500);
        let mut muxes: Vec<RbcMux<u8, String>> =
            (0..4).map(|i| RbcMux::new(cfg(), n(i), RbcKind::Coded)).collect();
        let mut inbox: Vec<(NodeId, NodeId, RbcMuxMessage<u8, String>)> = Vec::new();
        let mut delivered: Vec<(NodeId, String)> = Vec::new();

        fn dispatch(
            from: NodeId,
            actions: Vec<RbcMuxAction<u8, String>>,
            inbox: &mut Vec<(NodeId, NodeId, RbcMuxMessage<u8, String>)>,
            delivered: &mut Vec<(NodeId, String)>,
        ) {
            for a in actions {
                match a {
                    RbcMuxAction::Broadcast(m) => {
                        for t in 0..4 {
                            inbox.push((from, n(t), m.clone()));
                        }
                    }
                    RbcMuxAction::Send { to, msg } => inbox.push((from, to, msg)),
                    RbcMuxAction::Deliver { payload, .. } => delivered.push((from, payload)),
                }
            }
        }

        let start = muxes[0].broadcast(9, payload.clone());
        dispatch(n(0), start, &mut inbox, &mut delivered);
        let mut head = 0;
        while head < inbox.len() {
            let (from, to, msg) = inbox[head].clone();
            head += 1;
            let acts = muxes[to.index()].on_message(from, &msg);
            dispatch(to, acts, &mut inbox, &mut delivered);
        }

        let mut nodes: Vec<usize> = delivered.iter().map(|(id, _)| id.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3], "every node delivers once: {delivered:?}");
        assert!(delivered.iter().all(|(_, p)| *p == payload));
        // Delivery already freed every fragment; the host's GC is left
        // only the delivered instances' shells.
        for mux in &mut muxes {
            assert_eq!(mux.buffered_fragment_bytes(), 0, "delivery reclaims fragment buffers");
            assert_eq!(mux.instance_count(), 1);
            mux.retain(|_, _| false);
            assert_eq!(mux.instance_count(), 0);
        }
    }

    #[test]
    fn kinds_ignore_each_others_messages() {
        let c = bft_ec::encode(b"payload", 4, 2).unwrap();
        // A coded mux ignores Bracha traffic…
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(1), RbcKind::Coded);
        for i in [0usize, 2, 3] {
            let acts = mux.on_message(
                n(i),
                &RbcMuxMessage { sender: n(0), tag: 1, msg: RbcMessage::Ready("m".to_string()) },
            );
            assert!(acts.is_empty(), "no Ready is counted, so nothing delivers");
        }
        // …and a Bracha mux ignores coded traffic.
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(1), RbcKind::Bracha);
        for i in [0usize, 2, 3] {
            let acts = mux.on_message(
                n(i),
                &RbcMuxMessage {
                    sender: n(0),
                    tag: 1,
                    msg: RbcMessage::CodedReady { root: c.root },
                },
            );
            assert!(acts.is_empty(), "no Ready is counted, so nothing delivers");
        }
    }

    #[test]
    fn instances_are_isolated_by_tag() {
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(1), RbcKind::Bracha);
        // Readys for tag 1 must not count toward tag 2.
        let mut acts = Vec::new();
        for i in [0usize, 2, 3] {
            acts.extend(mux.on_message(
                n(i),
                &RbcMuxMessage { sender: n(0), tag: 1, msg: RbcMessage::Ready("m".to_string()) },
            ));
        }
        acts.retain(|a| matches!(a, RbcMuxAction::Deliver { .. }));
        let m = "m".to_string();
        assert_eq!(acts, vec![RbcMuxAction::Deliver { sender: n(0), tag: 1, payload: m }]);
        assert_eq!(mux.instance_count(), 1);
        assert!(mux.has_tag(&1) && !mux.has_tag(&2));
        mux.retain(|_, tag| *tag != 1);
        assert!(!mux.has_tag(&1), "a collected tag leaves no trace");
    }

    #[test]
    fn instances_are_isolated_by_sender() {
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(1), RbcKind::Bracha);
        let mut acts = mux.on_message(
            n(2),
            &RbcMuxMessage { sender: n(2), tag: 1, msg: RbcMessage::Ready("a".to_string()) },
        );
        acts.extend(mux.on_message(
            n(3),
            &RbcMuxMessage { sender: n(3), tag: 1, msg: RbcMessage::Ready("a".to_string()) },
        ));
        // Two Readys but for *different* instances: no amplification, so
        // neither instance sends a Ready or delivers.
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(mux.instance_count(), 2);
    }

    #[test]
    fn messages_for_out_of_range_senders_are_dropped() {
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(1), RbcKind::Bracha);
        let acts = mux.on_message(
            n(2),
            &RbcMuxMessage { sender: n(9), tag: 1, msg: RbcMessage::Ready("a".to_string()) },
        );
        assert!(acts.is_empty());
        assert_eq!(mux.instance_count(), 0);
    }

    #[test]
    fn retain_garbage_collects() {
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(0), RbcKind::Bracha);
        let _ = mux.broadcast(1, "a".to_string());
        let _ = mux.broadcast(2, "b".to_string());
        assert_eq!(mux.instance_count(), 2);
        mux.retain(|_, tag| *tag >= 2);
        assert_eq!(mux.instance_count(), 1);
    }

    #[test]
    fn tracer_attaches_contexts_and_retain_closes_open_spans() {
        use bft_obs::{Event as ObsEvent, Obs, TracePhase, VecSink};

        fn tracer(sender: NodeId, tag: &u8) -> Option<TraceCtx> {
            Some(TraceCtx::derive(sender, u64::from(*tag), u64::from(*tag)))
        }

        let (obs, sink) = Obs::new(VecSink::new());
        let mut mux: RbcMux<u8, String> = RbcMux::new(cfg(), n(1), RbcKind::Bracha);
        mux.set_obs(obs.clone());
        mux.set_tracer(tracer);

        // A Send opens the echo span; GC before delivery must close it.
        let _ = mux.on_message(
            n(0),
            &RbcMuxMessage { sender: n(0), tag: 3, msg: RbcMessage::Send("m".to_string()) },
        );
        obs.set_now(4);
        mux.retain(|_, _| false);
        assert_eq!(mux.instance_count(), 0);

        let ctx = TraceCtx::derive(n(0), 3, 3);
        let echo = ctx.span(n(1), TracePhase::RbcEcho);
        let events = sink.lock().take();
        let spans: Vec<_> = events
            .iter()
            .filter(|(_, _, e)| matches!(e, ObsEvent::SpanStart { .. } | ObsEvent::SpanEnd { .. }))
            .collect();
        assert_eq!(spans.len(), 2, "start + GC close: {spans:?}");
        assert!(
            matches!(spans[0].2, ObsEvent::SpanStart { span, .. } if span == echo),
            "the tracer-derived context names the span"
        );
        assert_eq!(spans[1], &(4, n(1), ObsEvent::SpanEnd { trace: ctx.trace, span: echo }));
    }
}
