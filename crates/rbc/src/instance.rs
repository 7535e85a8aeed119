//! A single reliable-broadcast instance.

use crate::vote::{bump, Votes};
use crate::RbcMessage;
use bft_obs::RbcPhase;
use bft_types::{Config, NodeId};
use std::fmt;

/// An instruction produced by an [`RbcInstance`] for its host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbcAction<P> {
    /// Send this message to every node (including ourselves).
    Broadcast(RbcMessage<P>),
    /// Send this message to exactly one node — the coded variant's
    /// per-recipient fragment dissemination.
    Send {
        /// The recipient.
        to: NodeId,
        /// The message to deliver to `to` alone.
        msg: RbcMessage<P>,
    },
    /// The payload has been reliably delivered — at most once per
    /// instance, and (for correct hosts) with the agreement and totality
    /// guarantees of the protocol.
    Deliver(P),
}

/// The state machine of one Bracha reliable-broadcast instance at one node.
///
/// An instance is identified by its designated sender (plus, when
/// multiplexed by [`RbcMux`](crate::RbcMux), an application tag). The host
/// feeds every incoming instance message to [`RbcInstance::on_message`] and
/// executes the returned actions; if this node is the designated sender it
/// kicks the instance off with [`RbcInstance::start`].
///
/// The vote rule — echo once, Ready on the echo quorum or `f + 1` Readys,
/// deliver on `2f + 1` — is the shared core's; this instance adds full
/// payloads: it echoes the payload it was sent and counts echoes per
/// payload. The delivered payload leaves in [`RbcAction::Deliver`]; the
/// instance keeps no copy.
///
/// Byzantine-resistance notes:
///
/// * A `Send` is honoured only if it arrives from the designated sender
///   (channels are authenticated), and only the first one counts.
/// * At most one `Echo` and one `Ready` per peer are counted; later
///   (possibly conflicting) ones from the same peer are ignored.
#[derive(Clone, Debug)]
pub struct RbcInstance<P> {
    pub(crate) votes: Votes<P>,
    /// Distinct Echo payloads and how many peers support each.
    echoes: Vec<(P, usize)>,
}

impl<P> RbcInstance<P>
where
    P: Clone + Eq + fmt::Debug,
{
    /// Creates the instance state for node `me` with designated `sender`.
    pub fn new(config: Config, me: NodeId, sender: NodeId) -> Self {
        RbcInstance { votes: Votes::new(config, me, sender), echoes: Vec::new() }
    }

    /// Starts the broadcast. Only meaningful at the designated sender.
    ///
    /// Returns the initial `Send` broadcast. Calling it again (or at a
    /// non-sender node) returns no actions — the instance ignores the
    /// attempt rather than equivocating.
    pub fn start(&mut self, payload: P) -> Vec<RbcAction<P>> {
        if !self.votes.start() {
            return Vec::new();
        }
        vec![RbcAction::Broadcast(RbcMessage::Send(payload))]
    }

    /// Processes one instance message from (authenticated) peer `from`.
    ///
    /// The message arrives by reference (the transport may share one
    /// allocation across recipients); the payload is cloned only when it
    /// is stored or re-broadcast.
    pub fn on_message(&mut self, from: NodeId, msg: &RbcMessage<P>) -> Vec<RbcAction<P>> {
        if !self.votes.config.contains(from) {
            return Vec::new();
        }
        let ready = |payload: &P| RbcMessage::Ready(payload.clone());
        let mut actions = Vec::new();
        match msg {
            RbcMessage::Send(payload) => {
                if self.votes.awaits_send(from) {
                    self.votes.echo();
                    actions.push(RbcAction::Broadcast(RbcMessage::Echo(payload.clone())));
                }
            }
            RbcMessage::Echo(payload) => {
                if self.votes.count_echo(from) {
                    let count = bump(&mut self.echoes, payload);
                    if count >= self.votes.config.echo_threshold() {
                        let via = RbcPhase::Echo;
                        self.votes.maybe_send_ready(payload, via, count, ready, &mut actions);
                    }
                }
            }
            RbcMessage::Ready(payload) => {
                if self.votes.on_ready(from, payload, ready, &mut actions)
                    && !self.votes.delivered()
                {
                    self.votes.deliver(payload);
                    actions.push(RbcAction::Deliver(payload.clone()));
                }
            }
            // Coded-variant traffic belongs to a `CodedInstance`; a Bracha
            // instance ignores it rather than guessing at semantics.
            RbcMessage::CodedSend { .. }
            | RbcMessage::CodedEcho { .. }
            | RbcMessage::CodedReady { .. } => {}
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_obs::{Event as ObsEvent, TraceCtx, TracePhase};

    fn cfg() -> Config {
        Config::new(4, 1).unwrap()
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn sender_starts_once() {
        let mut inst = RbcInstance::new(cfg(), n(0), n(0));
        let a = inst.start("m");
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::Send("m"))]);
        assert!(inst.start("m2").is_empty(), "second start must be ignored");
    }

    #[test]
    fn non_sender_cannot_start() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.start("m").is_empty());
    }

    #[test]
    fn echo_only_for_designated_sender() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(2), &RbcMessage::Send("evil")).is_empty());
        let a = inst.on_message(n(0), &RbcMessage::Send("m"));
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::Echo("m"))]);
    }

    #[test]
    fn first_send_wins() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        let a = inst.on_message(n(0), &RbcMessage::Send("m1"));
        assert_eq!(a.len(), 1);
        assert!(inst.on_message(n(0), &RbcMessage::Send("m2")).is_empty());
    }

    #[test]
    fn echo_quorum_triggers_ready() {
        // n=4, f=1: echo threshold = ⌈6/2⌉ = 3.
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(0), &RbcMessage::Echo("m")).is_empty());
        assert!(inst.on_message(n(2), &RbcMessage::Echo("m")).is_empty());
        let a = inst.on_message(n(3), &RbcMessage::Echo("m"));
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::Ready("m"))]);
    }

    #[test]
    fn duplicate_echoes_from_same_peer_ignored() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(2), &RbcMessage::Echo("m")).is_empty());
        assert!(inst.on_message(n(2), &RbcMessage::Echo("m")).is_empty());
        assert!(inst.on_message(n(2), &RbcMessage::Echo("other")).is_empty());
        // Only one distinct echoer so far; two more are needed.
        assert!(inst.on_message(n(3), &RbcMessage::Echo("m")).is_empty());
        let a = inst.on_message(n(0), &RbcMessage::Echo("m"));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn ready_amplification_at_f_plus_one() {
        // f+1 = 2 Readys make us Ready without any Echo quorum.
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(2), &RbcMessage::Ready("m")).is_empty());
        let a = inst.on_message(n(3), &RbcMessage::Ready("m"));
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::Ready("m"))]);
    }

    #[test]
    fn delivery_at_two_f_plus_one_readys() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(0), &RbcMessage::Ready("m")).is_empty());
        let a = inst.on_message(n(2), &RbcMessage::Ready("m"));
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::Ready("m"))]);
        let a = inst.on_message(n(3), &RbcMessage::Ready("m"));
        assert_eq!(a, vec![RbcAction::Deliver("m")]);
    }

    #[test]
    fn delivery_happens_once() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        let a: Vec<_> = [0usize, 2, 3]
            .iter()
            .flat_map(|&i| inst.on_message(n(i), &RbcMessage::Ready("m")))
            .collect();
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::Ready("m")), RbcAction::Deliver("m")]);
        // A fourth Ready must not deliver again.
        assert!(inst.on_message(n(1), &RbcMessage::Ready("m")).is_empty());
    }

    #[test]
    fn conflicting_readies_cannot_both_deliver() {
        // Readys are counted once per peer, so even a fully Byzantine set
        // of senders cannot push two payloads to 2f+1 distinct supporters
        // with only n = 4 peers.
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        let a: Vec<_> = [(0usize, "a"), (2, "b"), (3, "a"), (1, "b")]
            .iter()
            .flat_map(|&(i, p)| inst.on_message(n(i), &RbcMessage::Ready(p)))
            .collect();
        assert!(!a.iter().any(|a| matches!(a, RbcAction::Deliver(_))), "{a:?}");
    }

    #[test]
    fn messages_from_unknown_nodes_are_dropped() {
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(7), &RbcMessage::Ready("m")).is_empty());
        // Had the stranger's Ready counted, this one would be the f + 1-th.
        assert!(inst.on_message(n(0), &RbcMessage::Ready("m")).is_empty());
    }

    fn span_events(events: &[(u64, NodeId, ObsEvent)]) -> Vec<(u64, ObsEvent)> {
        events
            .iter()
            .filter(|(_, _, e)| matches!(e, ObsEvent::SpanStart { .. } | ObsEvent::SpanEnd { .. }))
            .map(|(at, _, e)| (*at, e.clone()))
            .collect()
    }

    #[test]
    fn traced_instance_emits_balanced_echo_and_ready_spans() {
        let (obs, sink) = bft_obs::Obs::new(bft_obs::VecSink::new());
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        inst.votes.set_obs(obs.clone(), "t".into());
        let ctx = TraceCtx::derive(n(0), 0, 0);
        inst.votes.set_trace(Some(ctx));
        obs.set_now(1);
        let _ = inst.on_message(n(0), &RbcMessage::Send("m"));
        obs.set_now(2);
        for i in [0usize, 2, 3] {
            let _ = inst.on_message(n(i), &RbcMessage::Echo("m"));
        }
        obs.set_now(5);
        for i in [0usize, 2, 3] {
            let _ = inst.on_message(n(i), &RbcMessage::Ready("m"));
        }
        let events = sink.lock().take();
        let echo = ctx.span(n(1), TracePhase::RbcEcho);
        let ready = ctx.span(n(1), TracePhase::RbcReady);
        let expected = vec![
            (
                1,
                ObsEvent::SpanStart {
                    trace: ctx.trace,
                    span: echo,
                    parent: ctx.root,
                    phase: TracePhase::RbcEcho,
                },
            ),
            (2, ObsEvent::SpanEnd { trace: ctx.trace, span: echo }),
            (
                2,
                ObsEvent::SpanStart {
                    trace: ctx.trace,
                    span: ready,
                    parent: ctx.root,
                    phase: TracePhase::RbcReady,
                },
            ),
            (5, ObsEvent::SpanEnd { trace: ctx.trace, span: ready }),
        ];
        assert_eq!(span_events(&events), expected);
    }

    #[test]
    fn finish_spans_closes_open_spans_exactly_once() {
        let (obs, sink) = bft_obs::Obs::new(bft_obs::VecSink::new());
        let mut inst = RbcInstance::new(cfg(), n(1), n(0));
        inst.votes.set_obs(obs.clone(), "t".into());
        inst.votes.set_trace(Some(TraceCtx::derive(n(0), 0, 0)));
        let _ = inst.on_message(n(0), &RbcMessage::Send("m"));
        obs.set_now(9);
        inst.votes.finish_spans();
        inst.votes.finish_spans();
        let events = sink.lock().take();
        let spans = span_events(&events);
        assert_eq!(spans.len(), 2, "one start, one GC close: {spans:?}");
        assert!(matches!(spans.last(), Some((9, ObsEvent::SpanEnd { .. }))));
    }
}
