//! Attacks on the reliable-broadcast primitive itself (experiment T4).

use bft_rbc::RbcMessage;
use bft_types::{Effect, NodeId, Process};
use std::fmt;
use std::hash::Hash;

/// A Byzantine *designated sender* that equivocates: it sends payload `a`
/// to the first half of the nodes and payload `b` to the rest, then plays
/// along with the Echo/Ready phases of whichever payload it hears about
/// first.
///
/// Bracha's reliable broadcast guarantees that despite this, no two
/// correct nodes deliver different payloads — either one payload reaches
/// the Echo quorum `⌈(n+f+1)/2⌉` and wins everywhere, or nobody delivers.
///
/// # Example
///
/// ```
/// use bft_adversary::RbcEquivocator;
/// use bft_types::{Config, NodeId, Process};
///
/// # fn main() -> Result<(), bft_types::ConfigError> {
/// let cfg = Config::new(4, 1)?;
/// let mut evil = RbcEquivocator::new(cfg, NodeId::new(0), "a", "b");
/// let effects = evil.on_start();
/// assert_eq!(effects.len(), 4, "one targeted Send per node");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RbcEquivocator<P> {
    config: bft_types::Config,
    id: NodeId,
    payload_a: P,
    payload_b: P,
    echoed: bool,
}

impl<P> RbcEquivocator<P>
where
    P: Clone + Eq + Hash + fmt::Debug,
{
    /// Creates the equivocating sender.
    pub fn new(config: bft_types::Config, id: NodeId, payload_a: P, payload_b: P) -> Self {
        RbcEquivocator { config, id, payload_a, payload_b, echoed: false }
    }
}

impl<P> Process for RbcEquivocator<P>
where
    P: Clone + Eq + Hash + fmt::Debug,
{
    type Msg = RbcMessage<P>;
    type Output = P;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<RbcMessage<P>, P>> {
        let half = self.config.n() / 2;
        self.config
            .nodes()
            .map(|to| {
                let payload =
                    if to.index() < half { self.payload_a.clone() } else { self.payload_b.clone() };
                Effect::Send { to, msg: RbcMessage::Send(payload) }
            })
            .collect()
    }

    fn on_message(&mut self, _from: NodeId, msg: &RbcMessage<P>) -> Vec<Effect<RbcMessage<P>, P>> {
        // Support whichever payload the network is converging on, once —
        // enough participation to look alive, not enough to help totality.
        if let RbcMessage::Echo(p) = msg {
            if !self.echoed {
                self.echoed = true;
                return vec![Effect::Broadcast { msg: RbcMessage::Echo(p.clone()) }];
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_rbc::{RbcKind, RbcProcess};
    use bft_sim::{StopReason, UniformDelay, World, WorldConfig};
    use bft_types::Config;

    /// The T4 headline: an equivocating sender can never make two correct
    /// nodes deliver different payloads, across many schedules.
    #[test]
    fn equivocation_never_splits_delivery() {
        for seed in 0..30 {
            let cfg = Config::new(4, 1).unwrap();
            let sender = NodeId::new(0);
            let mut world = World::new(WorldConfig::new(4), UniformDelay::new(1, 20, seed));
            world.add_faulty_process(Box::new(RbcEquivocator::new(
                cfg,
                sender,
                "a".to_string(),
                "b".to_string(),
            )));
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
            // Agreement: whatever was delivered, it is unanimous.
            assert!(report.agreement_holds(), "seed {seed}: split delivery!");
            // All-or-none can legitimately end in "none" (queue drains
            // undelivered); both outcomes are allowed, splits are not.
            assert!(
                matches!(report.stop, StopReason::Completed | StopReason::QueueDrained),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn equivocator_targets_halves() {
        let cfg = Config::new(6, 1).unwrap();
        let mut evil = RbcEquivocator::new(cfg, NodeId::new(0), 1u8, 2u8);
        let effects = evil.on_start();
        let mut a_targets = Vec::new();
        let mut b_targets = Vec::new();
        for e in effects {
            if let Effect::Send { to, msg: RbcMessage::Send(p) } = e {
                if p == 1 {
                    a_targets.push(to.index());
                } else {
                    b_targets.push(to.index());
                }
            }
        }
        assert_eq!(a_targets, vec![0, 1, 2]);
        assert_eq!(b_targets, vec![3, 4, 5]);
    }
}
