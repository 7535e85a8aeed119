//! The ordering core runs its ACS fixpoint only after the events that can
//! change a rule's input (a batch delivery, an agreement decision, an
//! agreement halt). Two properties pin that this is only *fewer calls*,
//! never different behaviour:
//!
//! * **fixpoint invariant** — after every single `on_message`, a full
//!   `poke()` finds nothing to do;
//! * **differential** — against a reference that pokes after every
//!   delivery (the behaviour before the gating), a simulated cluster
//!   produces the same logs, the same per-node effect sequences and the
//!   same message totals.

use async_bft::coin::CommonCoin;
use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::sim::{StopPolicy, UniformDelay, World, WorldConfig};
use async_bft::types::{Config, Effect, NodeId, Process};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

type OrderEffect = Effect<OrderMessage, OrderLog>;

fn node(cfg: Config, id: NodeId, opts: OrderOptions, seed: u64) -> OrderProcess<CommonCoin> {
    let per_node = 2 * opts.epochs;
    let workload = (0..per_node).map(|t| vec![id.index() as u8, t as u8]).collect();
    OrderProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(seed, inst))
}

/// Everything a caller can see of a node's pipeline position.
fn getters(p: &OrderProcess<CommonCoin>) -> (u64, u64, usize, usize, usize) {
    (p.committed_epochs(), p.in_flight(), p.live_epochs(), p.retained_aba_count(), p.log().len())
}

/// A message in the hand-pumped network: `(from, to, msg)`.
type InFlight = (NodeId, NodeId, OrderMessage);

/// Pumps a cluster by hand in a seeded random delivery order and checks the
/// fixpoint invariant after every delivery. The last `silent` nodes never
/// take a step; everything node 0 sends during the first `lag_steps`
/// deliveries is held back until then, so the others commit early epochs
/// with its slot decided 0 (the input-0 path and the re-proposal path).
fn pump_checking_fixpoint(n: usize, depth: usize, silent: usize, lag_steps: u64, seed: u64) {
    let cfg = Config::max_resilience(n).expect("n >= 4");
    let live = n - silent;
    let epochs = depth as u64 + 1;
    let opts =
        OrderOptions { batch_max: 2, pipeline_depth: depth, epochs, ..OrderOptions::default() };
    let mut nodes: Vec<_> = (0..live).map(|i| node(cfg, NodeId::new(i), opts, seed)).collect();

    let mut rng = proptest::TestRng::deterministic(seed);
    let (mut net, mut held): (Vec<InFlight>, Vec<InFlight>) = (Vec::new(), Vec::new());
    let mut step = 0u64;
    let fan_out = |pool: &mut Vec<InFlight>, me: NodeId, effects: Vec<OrderEffect>| {
        for effect in effects {
            match effect {
                Effect::Broadcast { msg } => {
                    pool.extend((0..live).map(|to| (me, NodeId::new(to), msg.clone())));
                }
                Effect::Send { to, msg } if to.index() < live => pool.push((me, to, msg)),
                _ => {}
            }
        }
    };
    for p in nodes.iter_mut() {
        let lagging = p.id().index() == 0 && step < lag_steps;
        fan_out(if lagging { &mut held } else { &mut net }, p.id(), p.on_start());
    }

    loop {
        if step >= lag_steps || net.is_empty() {
            net.append(&mut held);
        }
        if net.is_empty() {
            break;
        }
        // A uniformly random deliverable message.
        let (from, to, msg) = net.swap_remove(rng.below(net.len() as u64) as usize);
        step += 1;
        let p = &mut nodes[to.index()];
        let effects = p.on_message(from, &msg);

        let before = getters(p);
        let extra = p.poke();
        assert!(
            extra.is_empty(),
            "n={n} depth={depth} seed={seed} step={step}: {msg} to {to} left {} effects to poke()",
            extra.len()
        );
        assert_eq!(getters(p), before, "n={n} depth={depth} seed={seed}: poke() moved a getter");

        let lagging = to.index() == 0 && step < lag_steps;
        fan_out(if lagging { &mut held } else { &mut net }, to, effects);
    }

    let first = nodes[0].output().expect("the run completes");
    for p in &nodes {
        assert_eq!(p.committed_epochs(), epochs);
        assert_eq!(p.output().as_ref(), Some(&first));
        assert!(p.is_halted() && p.live_epochs() == 0, "wind-down collects every epoch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every `on_message`, `poke()` returns no effects and moves no
    /// getter: the early return never leaves work a full fixpoint pass
    /// would have done.
    #[test]
    fn every_message_leaves_a_fixpoint(
        n_pick in 0usize..3,
        depth_pick in 0usize..3,
        silent_all in proptest::bool::ANY,
        lag in proptest::bool::ANY,
        seed in 0u64..100_000,
    ) {
        let (n, depth) = ([4, 7, 10][n_pick], [1, 2, 4][depth_pick]);
        let silent = if silent_all { (n - 1) / 3 } else { 0 };
        let lag_steps = if lag { 40 * (n * n) as u64 } else { 0 };
        pump_checking_fixpoint(n, depth, silent, lag_steps, seed);
    }
}

/// An `OrderProcess` as the simulator sees it, recording every effect it
/// returns; with `poke_every_message` it also runs the full fixpoint after
/// each delivery — the ordering core's behaviour before the gating, kept
/// here as the reference the gated path is compared against.
struct Recorded {
    inner: OrderProcess<CommonCoin>,
    poke_every_message: bool,
    effects: Arc<Mutex<Vec<OrderEffect>>>,
}

impl Recorded {
    fn record(&self, effects: Vec<OrderEffect>) -> Vec<OrderEffect> {
        self.effects.lock().expect("no panics hold this lock").extend(effects.iter().cloned());
        effects
    }
}

impl Process for Recorded {
    type Msg = OrderMessage;
    type Output = OrderLog;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<OrderEffect> {
        let effects = self.inner.on_start();
        self.record(effects)
    }

    fn on_message(&mut self, from: NodeId, msg: &OrderMessage) -> Vec<OrderEffect> {
        let mut effects = self.inner.on_message(from, msg);
        if self.poke_every_message {
            effects.extend(self.inner.poke());
        }
        self.record(effects)
    }

    fn output(&self) -> Option<OrderLog> {
        self.inner.output()
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }
}

/// One simulated run: the unanimous log, each node's effect sequence, and
/// the `(sent, delivered)` totals.
fn simulate(
    n: usize,
    depth: usize,
    seed: u64,
    poke_every_message: bool,
) -> (OrderLog, Vec<Vec<OrderEffect>>, (u64, u64)) {
    let cfg = Config::max_resilience(n).expect("n >= 4");
    let opts = OrderOptions {
        batch_max: 2,
        pipeline_depth: depth,
        epochs: depth as u64 + 2,
        ..OrderOptions::default()
    };
    // Run to the last halt, so the wind-down (epoch GC after the halting
    // gadget, the final `Halt` effect) is part of what is compared.
    let world_cfg = WorldConfig::new(n).stop_policy(StopPolicy::AllCorrectHalted);
    let mut world = World::new(world_cfg, UniformDelay::new(1, 12, seed));
    let mut recorders = Vec::new();
    for id in cfg.nodes() {
        let effects = Arc::new(Mutex::new(Vec::new()));
        recorders.push(Arc::clone(&effects));
        let inner = node(cfg, id, opts, seed);
        world.add_process(Box::new(Recorded { inner, poke_every_message, effects }));
    }
    let report = world.run();
    assert!(report.all_correct_decided());
    let log = report.unanimous_output().expect("every node outputs the same log");
    let effects = recorders
        .iter()
        .map(|r| std::mem::take(&mut *r.lock().expect("no panics hold this lock")))
        .collect();
    (log, effects, (report.metrics.sent, report.metrics.delivered))
}

/// Differential: the gated path against the poke-after-every-delivery
/// reference, same seeds, under `World` + `UniformDelay`.
#[test]
fn gated_fixpoint_matches_a_poke_after_every_message_reference() {
    for (n, depth) in [(4, 1), (4, 4), (7, 2)] {
        for seed in [3u64, 17, 4242] {
            let (log, effects, totals) = simulate(n, depth, seed, false);
            let (ref_log, ref_effects, ref_totals) = simulate(n, depth, seed, true);
            assert!(!log.is_empty());
            assert_eq!(log, ref_log, "n={n} depth={depth} seed={seed}: logs differ");
            assert_eq!(totals, ref_totals, "n={n} depth={depth} seed={seed}: sent/delivered");
            for (i, (got, want)) in effects.iter().zip(&ref_effects).enumerate() {
                assert!(got == want, "n={n} depth={depth} seed={seed}: node {i}'s effects differ");
            }
        }
    }
}
