//! Ablation: "echo broadcast" — Bracha broadcast *without* the Ready
//! phase.
//!
//! A two-phase Send/Echo protocol (deliver on an Echo quorum) already
//! prevents equivocation: two different payloads can never both gather
//! `⌈(n+f+1)/2⌉` echoes. What it loses is **totality**: delivery needs a
//! full echo quorum *at each receiver*, and with a faulty sender that
//! sends to only a subset (or a scheduler that starves one node until the
//! others are done) some correct nodes can deliver while others never do.
//! Bracha's `f + 1 → 2f + 1` Ready amplification is precisely the repair.
//!
//! This module exists for the T4 ablation and the test below, which
//! exhibits a concrete totality violation that [`RbcInstance`] is immune
//! to.
//!
//! [`RbcInstance`]: crate::RbcInstance

use crate::vote::bump;
use crate::RbcMessage;
use bft_types::{Config, Effect, NodeId, Process};
use std::collections::BTreeSet;
use std::fmt;

/// One node of the echo-only broadcast (the ablated protocol).
///
/// Reuses [`RbcMessage`] on the wire but never sends `Ready`.
#[derive(Clone, Debug)]
pub struct EchoBroadcast<P> {
    config: Config,
    id: NodeId,
    sender: NodeId,
    payload: Option<P>,
    echoed: bool,
    /// Distinct Echo payloads and how many peers support each.
    echoes: Vec<(P, usize)>,
    echoed_peers: BTreeSet<NodeId>,
    delivered: Option<P>,
}

impl<P> EchoBroadcast<P>
where
    P: Clone + Ord + fmt::Debug,
{
    /// Creates a participant; `payload` must be `Some` exactly at the
    /// designated sender.
    pub fn new(config: Config, id: NodeId, sender: NodeId, payload: Option<P>) -> Self {
        EchoBroadcast {
            config,
            id,
            sender,
            payload,
            echoed: false,
            echoes: Vec::new(),
            echoed_peers: BTreeSet::new(),
            delivered: None,
        }
    }

    /// The delivered payload, if any.
    pub fn delivered(&self) -> Option<&P> {
        self.delivered.as_ref()
    }
}

impl<P> Process for EchoBroadcast<P>
where
    P: Clone + Ord + fmt::Debug,
{
    type Msg = RbcMessage<P>;
    type Output = P;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<RbcMessage<P>, P>> {
        match self.payload.take() {
            Some(p) if self.id == self.sender => {
                vec![Effect::Broadcast { msg: RbcMessage::Send(p) }]
            }
            _ => Vec::new(),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &RbcMessage<P>) -> Vec<Effect<RbcMessage<P>, P>> {
        match msg {
            RbcMessage::Send(p) => {
                if from == self.sender && !self.echoed {
                    self.echoed = true;
                    return vec![Effect::Broadcast { msg: RbcMessage::Echo(p.clone()) }];
                }
            }
            RbcMessage::Echo(p) => {
                if self.echoed_peers.insert(from) {
                    let count = bump(&mut self.echoes, p);
                    if count >= self.config.echo_threshold() && self.delivered.is_none() {
                        self.delivered = Some(p.clone());
                        return vec![Effect::Output(p.clone())];
                    }
                }
            }
            // The ablated protocol has no Ready phase (and no coded
            // variant); ignore strays.
            RbcMessage::Ready(_)
            | RbcMessage::CodedSend { .. }
            | RbcMessage::CodedEcho { .. }
            | RbcMessage::CodedReady { .. } => {}
        }
        Vec::new()
    }

    fn output(&self) -> Option<P> {
        self.delivered.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RbcKind, RbcProcess};
    use bft_sim::{FixedDelay, World, WorldConfig};

    /// With a correct sender both protocols deliver everywhere.
    #[test]
    fn echo_broadcast_works_with_correct_sender() {
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let sender = NodeId::new(0);
        let mut world = World::new(WorldConfig::new(n), FixedDelay::new(1));
        for id in cfg.nodes() {
            let payload = (id == sender).then(|| "m".to_string());
            world.add_process(Box::new(EchoBroadcast::new(cfg, id, sender, payload)));
        }
        let report = world.run();
        assert!(report.all_correct_decided());
        assert_eq!(report.unanimous_output(), Some("m".to_string()));
    }

    /// A Byzantine sender engineering a totality split: it sends the
    /// payload to nodes 1 and 2 (both echo), and a *fake targeted echo*
    /// to node 1 only. Node 1 then counts three echoes (1, 2, sender) and
    /// delivers; node 2 counts two and never can; node 3 saw nothing.
    struct SplittingSender {
        id: NodeId,
    }

    impl Process for SplittingSender {
        type Msg = RbcMessage<String>;
        type Output = String;
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_start(&mut self) -> Vec<Effect<Self::Msg, String>> {
            vec![
                Effect::Send { to: NodeId::new(1), msg: RbcMessage::Send("m".to_string()) },
                Effect::Send { to: NodeId::new(2), msg: RbcMessage::Send("m".to_string()) },
                Effect::Send { to: NodeId::new(1), msg: RbcMessage::Echo("m".to_string()) },
            ]
        }
        fn on_message(&mut self, _f: NodeId, _m: &Self::Msg) -> Vec<Effect<Self::Msg, String>> {
            Vec::new()
        }
    }

    #[test]
    fn echo_only_violates_totality_where_full_rbc_does_not() {
        let n = 4; // f = 1, echo threshold = 3
        let cfg = Config::new(n, 1).unwrap();
        let sender = NodeId::new(0);

        // --- ablated protocol: totality breaks ---
        let mut world = World::new(
            WorldConfig::new(n).stop_policy(bft_sim::StopPolicy::QueueDrain),
            FixedDelay::new(1),
        );
        world.add_faulty_process(Box::new(SplittingSender { id: sender }));
        for id in cfg.nodes().skip(1) {
            world.add_process(Box::new(EchoBroadcast::<String>::new(cfg, id, sender, None)));
        }
        let report = world.run();
        let deciders = report.correct.iter().filter(|id| report.outputs.contains_key(id)).count();
        assert!(
            deciders > 0 && deciders < report.correct.len(),
            "expected a partial delivery (totality violation), got {deciders} of {}",
            report.correct.len()
        );

        // --- full Bracha RBC under the *same* adversary: all-or-none ---
        let mut world = World::new(
            WorldConfig::new(n).stop_policy(bft_sim::StopPolicy::QueueDrain),
            FixedDelay::new(1),
        );
        world.add_faulty_process(Box::new(SplittingSender { id: sender }));
        for id in cfg.nodes().skip(1) {
            world.add_process(Box::new(RbcProcess::<String>::new(
                cfg,
                id,
                sender,
                RbcKind::Bracha,
                None,
            )));
        }
        let report = world.run();
        let deciders = report.correct.iter().filter(|id| report.outputs.contains_key(id)).count();
        assert!(
            deciders == 0 || deciders == report.correct.len(),
            "full RBC must be all-or-none, got {deciders} of {}",
            report.correct.len()
        );
    }
}
