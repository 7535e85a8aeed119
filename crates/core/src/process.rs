//! Transport adapter: running a [`BrachaNode`] under `bft-sim` or
//! `bft-net`.

use crate::{BrachaNode, BrachaOptions, Transition, Wire};
use bft_coin::CoinScheme;
use bft_types::{Config, Effect, NodeId, Process, Value};

/// A [`BrachaNode`] packaged as a [`Process`], with its input value.
///
/// The process output is the decided [`Value`]; [`Process::round`] reports
/// the node's current consensus round for the harness metrics.
///
/// # Example
///
/// See the [crate-level documentation](crate) for a full cluster run.
#[derive(Clone, Debug)]
pub struct BrachaProcess<C> {
    node: BrachaNode<C>,
    input: Value,
}

impl<C: CoinScheme> BrachaProcess<C> {
    /// Creates a consensus participant with the given input value.
    pub fn new(config: Config, me: NodeId, input: Value, coin: C, options: BrachaOptions) -> Self {
        BrachaProcess { node: BrachaNode::new(config, me, coin, options), input }
    }

    /// Read access to the wrapped node (for assertions in tests and
    /// experiments).
    pub fn node(&self) -> &BrachaNode<C> {
        &self.node
    }

    /// Attaches an observer to the wrapped node (see
    /// [`BrachaNode::with_obs`]).
    pub fn with_obs(mut self, obs: bft_obs::Obs) -> Self {
        self.node = self.node.with_obs(obs);
        self
    }

    fn lift(transitions: Vec<Transition>) -> Vec<Effect<Wire, Value>> {
        transitions
            .into_iter()
            .map(|t| match t {
                Transition::Broadcast(msg) => Effect::Broadcast { msg },
                Transition::Decide(v) => Effect::Output(v),
                Transition::Halt => Effect::Halt,
            })
            .collect()
    }
}

impl<C: CoinScheme> Process for BrachaProcess<C> {
    type Msg = Wire;
    type Output = Value;

    fn id(&self) -> NodeId {
        self.node.me()
    }

    fn on_start(&mut self) -> Vec<Effect<Wire, Value>> {
        Self::lift(self.node.start(self.input))
    }

    fn on_message(&mut self, from: NodeId, msg: &Wire) -> Vec<Effect<Wire, Value>> {
        Self::lift(self.node.on_message(from, msg))
    }

    fn output(&self) -> Option<Value> {
        self.node.decided()
    }

    fn is_halted(&self) -> bool {
        self.node.is_halted()
    }

    fn round(&self) -> u64 {
        // Report the decision round once decided (the node keeps
        // participating for `extra_rounds` afterwards, which is transport
        // bookkeeping, not protocol latency).
        self.node.decided_round().map(|r| r.get()).unwrap_or_else(|| self.node.round().get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_coin::{CommonCoin, LocalCoin};
    use bft_sim::{FixedDelay, StopReason, UniformDelay, World, WorldConfig};

    fn run_cluster(
        n: usize,
        f_placeholder: usize,
        inputs: &[Value],
        seed: u64,
    ) -> bft_sim::Report<Value> {
        let cfg = Config::new(n, f_placeholder).unwrap();
        let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 30, seed));
        for id in cfg.nodes() {
            world.add_process(Box::new(BrachaProcess::new(
                cfg,
                id,
                inputs[id.index()],
                LocalCoin::new(seed, id),
                BrachaOptions::default(),
            )));
        }
        world.run()
    }

    #[test]
    fn all_correct_cluster_decides_and_agrees() {
        for seed in 0..20 {
            let inputs = [Value::One, Value::Zero, Value::One, Value::Zero];
            let report = run_cluster(4, 1, &inputs, seed);
            assert_eq!(report.stop, StopReason::Completed, "seed {seed}");
            assert!(report.all_correct_decided(), "seed {seed}");
            assert!(report.agreement_holds(), "seed {seed}");
        }
    }

    #[test]
    fn unanimous_inputs_decide_fast_and_keep_validity() {
        for seed in 0..10 {
            let inputs = [Value::One; 7];
            let report = run_cluster(7, 2, &inputs, seed);
            assert_eq!(report.unanimous_output(), Some(Value::One), "seed {seed}");
            assert_eq!(report.decision_round(), Some(1), "unanimity decides in round 1");
        }
    }

    #[test]
    fn common_coin_cluster_decides() {
        let cfg = Config::new(7, 2).unwrap();
        let mut world = World::new(WorldConfig::new(7), UniformDelay::new(1, 30, 11));
        for id in cfg.nodes() {
            let input = if id.index() % 2 == 0 { Value::One } else { Value::Zero };
            world.add_process(Box::new(BrachaProcess::new(
                cfg,
                id,
                input,
                CommonCoin::new(11, 0),
                BrachaOptions::default(),
            )));
        }
        let report = world.run();
        assert!(report.all_correct_decided());
        assert!(report.agreement_holds());
    }

    #[test]
    fn larger_cluster_with_slow_links() {
        let inputs: Vec<Value> =
            (0..10).map(|i| if i < 5 { Value::Zero } else { Value::One }).collect();
        let report = run_cluster(10, 3, &inputs, 5);
        assert!(report.all_correct_decided());
        assert!(report.agreement_holds());
    }

    #[test]
    fn synchronous_schedule_decides_quickly() {
        let cfg = Config::new(4, 1).unwrap();
        let mut world = World::new(WorldConfig::new(4), FixedDelay::new(1));
        for id in cfg.nodes() {
            world.add_process(Box::new(BrachaProcess::new(
                cfg,
                id,
                Value::One,
                LocalCoin::new(0, id),
                BrachaOptions::default(),
            )));
        }
        let report = world.run();
        assert_eq!(report.unanimous_output(), Some(Value::One));
        assert_eq!(report.decision_round(), Some(1));
    }
}
