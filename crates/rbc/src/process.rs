//! Running a single reliable-broadcast instance as a transport-driven
//! [`Process`].

use crate::mux::Inst;
use crate::{CodedPayload, RbcAction, RbcKind, RbcMessage};
use bft_types::{Config, Effect, NodeId, Process};
use std::fmt;

/// One node participating in one reliable-broadcast instance of either
/// [`RbcKind`], packaged as a [`Process`] so it can run under `bft-sim` or
/// `bft-net`.
///
/// The designated sender is constructed with the payload it will
/// broadcast; other nodes are constructed without one. The process output
/// is the delivered payload.
///
/// # Example
///
/// ```
/// use bft_rbc::{RbcKind, RbcProcess};
/// use bft_sim::{FixedDelay, World, WorldConfig};
/// use bft_types::{Config, NodeId};
///
/// # fn main() -> Result<(), bft_types::ConfigError> {
/// let cfg = Config::new(4, 1)?;
/// let sender = NodeId::new(0);
/// let mut world = World::new(WorldConfig::new(4), FixedDelay::new(1));
/// for id in cfg.nodes() {
///     let payload = (id == sender).then(|| "hello".to_string());
///     world.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Bracha, payload)));
/// }
/// let report = world.run();
/// assert_eq!(report.unanimous_output(), Some("hello".to_string()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RbcProcess<P> {
    id: NodeId,
    instance: Inst<P>,
    payload: Option<P>,
    /// The delivered payload, recorded from the `Deliver` action (a coded
    /// instance hands it over and keeps none).
    output: Option<P>,
}

impl<P> RbcProcess<P>
where
    P: CodedPayload + Clone + Eq + fmt::Debug,
{
    /// Creates a participant running a `kind` instance. `payload` must be
    /// `Some` exactly at the designated sender (it is ignored elsewhere).
    pub fn new(
        config: Config,
        id: NodeId,
        sender: NodeId,
        kind: RbcKind,
        payload: Option<P>,
    ) -> Self {
        RbcProcess { id, instance: Inst::new(kind, config, id, sender), payload, output: None }
    }

    fn lift(&mut self, actions: Vec<RbcAction<P>>) -> Vec<Effect<RbcMessage<P>, P>> {
        actions
            .into_iter()
            .map(|action| match action {
                RbcAction::Broadcast(msg) => Effect::Broadcast { msg },
                RbcAction::Send { to, msg } => Effect::Send { to, msg },
                RbcAction::Deliver(p) => {
                    self.output = Some(p.clone());
                    Effect::Output(p)
                }
            })
            .collect()
    }
}

impl<P> Process for RbcProcess<P>
where
    P: CodedPayload + Clone + Eq + fmt::Debug,
{
    type Msg = RbcMessage<P>;
    type Output = P;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<Self::Msg, Self::Output>> {
        let Some(p) = self.payload.take() else { return Vec::new() };
        let actions = self.instance.start(p);
        self.lift(actions)
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: &Self::Msg,
    ) -> Vec<Effect<Self::Msg, Self::Output>> {
        let actions = self.instance.on_message(from, msg);
        self.lift(actions)
    }

    fn output(&self) -> Option<P> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{FixedDelay, UniformDelay, World, WorldConfig};

    fn run_broadcast(n: usize, f: usize, seed: u64) -> bft_sim::Report<String> {
        let cfg = Config::new(n, f).unwrap();
        let sender = NodeId::new(0);
        let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, seed));
        for id in cfg.nodes() {
            let payload = (id == sender).then(|| "payload".to_string());
            world.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Bracha, payload)));
        }
        world.run()
    }

    #[test]
    fn validity_with_correct_sender() {
        for seed in 0..10 {
            let report = run_broadcast(4, 1, seed);
            assert!(report.all_correct_decided(), "seed {seed}");
            assert_eq!(report.unanimous_output(), Some("payload".to_string()));
        }
    }

    #[test]
    fn scales_to_larger_systems() {
        let report = run_broadcast(13, 4, 3);
        assert!(report.all_correct_decided());
        assert!(report.agreement_holds());
        // Message complexity: 1 send-broadcast + ≤ n echo-broadcasts +
        // ≤ n ready-broadcasts, each n messages → O(n²).
        let n = 13u64;
        assert!(report.metrics.sent <= (1 + 2 * n) * n);
    }

    #[test]
    fn delivery_even_when_sender_crashes_after_send() {
        // The sender broadcasts Send then halts before echoing: the other
        // nodes still deliver (totality via echo quorum n−1 ≥ ⌈(n+f+1)/2⌉).
        struct SendThenCrash {
            id: NodeId,
        }
        impl Process for SendThenCrash {
            type Msg = RbcMessage<String>;
            type Output = String;
            fn id(&self) -> NodeId {
                self.id
            }
            fn on_start(&mut self) -> Vec<Effect<Self::Msg, String>> {
                vec![Effect::Broadcast { msg: RbcMessage::Send("m".to_string()) }, Effect::Halt]
            }
            fn on_message(&mut self, _f: NodeId, _m: &Self::Msg) -> Vec<Effect<Self::Msg, String>> {
                Vec::new()
            }
        }

        let cfg = Config::new(4, 1).unwrap();
        let sender = NodeId::new(0);
        let mut world = World::new(WorldConfig::new(4), FixedDelay::new(1));
        world.add_faulty_process(Box::new(SendThenCrash { id: sender }));
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
        assert!(report.all_correct_decided());
        assert_eq!(report.unanimous_output(), Some("m".to_string()));
    }

    #[test]
    fn no_delivery_when_sender_is_silent() {
        let cfg = Config::new(4, 1).unwrap();
        let sender = NodeId::new(0);
        struct Silent {
            id: NodeId,
        }
        impl Process for Silent {
            type Msg = RbcMessage<String>;
            type Output = String;
            fn id(&self) -> NodeId {
                self.id
            }
            fn on_start(&mut self) -> Vec<Effect<Self::Msg, String>> {
                Vec::new()
            }
            fn on_message(&mut self, _f: NodeId, _m: &Self::Msg) -> Vec<Effect<Self::Msg, String>> {
                Vec::new()
            }
        }
        let mut world = World::new(WorldConfig::new(4), FixedDelay::new(1));
        world.add_faulty_process(Box::new(Silent { id: sender }));
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
        // A silent sender stalls the instance — that's allowed: validity
        // only binds when the sender is correct. But *nobody* may deliver.
        assert_eq!(report.stop, bft_sim::StopReason::QueueDrained);
        assert!(report.outputs.is_empty());
    }
}
