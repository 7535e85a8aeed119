//! The ordering core runs its ACS fixpoint only after the events that can
//! change a rule's input (a batch delivery, an agreement decision, an
//! agreement halt); the client gateway in front of it does its own work
//! only when an epoch reaches the log; and the log keeps committed slots
//! as their batch bodies instead of a copy per payload. The properties
//! here pin that each is only *fewer calls* or *fewer copies*, never
//! different behaviour:
//!
//! * **fixpoint invariant** — after every single `on_message`, a full
//!   `poke()` finds nothing to do;
//! * **differential** — against a reference that pokes after every
//!   delivery (the behaviour before the gating), a simulated cluster
//!   produces the same logs, the same per-node effect sequences and the
//!   same message totals;
//! * **gateway differential** — a gated `GatewayProcess` cluster against
//!   one that drains, pokes and scans after every message: same logs,
//!   same client notices, same effects;
//! * **log view** — `log().to_vec()` is the per-payload log an
//!   append-time `decode_batch` used to build, for any committed body;
//! * **apply** — `KvState` folds a borrowed payload exactly as it folds
//!   an owned entry.

use async_bft::coin::CommonCoin;
use async_bft::net::{ClientSubmit, GatewayNotice, GatewayPipe};
use async_bft::order::gateway::GatewayProcess;
use async_bft::order::{
    encode_batch, LogEntry, OrderLog, OrderMessage, OrderOptions, OrderProcess,
};
use async_bft::rbc::{RbcMessage, RbcMuxMessage};
use async_bft::sim::{StopPolicy, UniformDelay, World, WorldConfig};
use async_bft::smr::{KvOp, KvState};
use async_bft::types::{Config, Effect, NodeId, Process};
use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// Puts `me`'s effects on the hand-pumped network: a broadcast reaches each
/// of the first `live` nodes (the sender included), a unicast its target if
/// that is one of them.
fn fan_out(pool: &mut Vec<InFlight>, live: usize, me: NodeId, effects: Vec<OrderEffect>) {
    for effect in effects {
        match effect {
            Effect::Broadcast { msg } => {
                pool.extend((0..live).map(|to| (me, NodeId::new(to), msg.clone())));
            }
            Effect::Send { to, msg } if to.index() < live => pool.push((me, to, msg)),
            _ => {}
        }
    }
}

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
    for p in nodes.iter_mut() {
        let lagging = p.id().index() == 0 && step < lag_steps;
        fan_out(if lagging { &mut held } else { &mut net }, live, p.id(), p.on_start());
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
        fan_out(if lagging { &mut held } else { &mut net }, live, to, effects);
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

/// One node of the gateway differential: the gated `GatewayProcess` as
/// shipped, or — `per_message` — the same process driven the way it used
/// to drive itself: drain, poke and scan (`on_tick`) after every message.
struct GatewayNode {
    gp: GatewayProcess<CommonCoin>,
    pipe: GatewayPipe,
    per_message: bool,
    ticks: u64,
    effects: Vec<OrderEffect>,
    notices: Vec<GatewayNotice>,
}

impl GatewayNode {
    fn deliver(&mut self, from: NodeId, msg: &OrderMessage) -> Vec<OrderEffect> {
        let mut effects = self.gp.on_message(from, msg);
        if self.per_message {
            effects.extend(self.gp.on_tick());
        }
        self.record(effects)
    }

    /// What the reactor does with a burst of parked submissions: queue
    /// them, then send the actor one tick. Each of `clients` offers `burst`
    /// seqs from the one its gateway expects next.
    fn intake(&mut self, clients: std::ops::Range<u64>, burst: u64) -> Vec<OrderEffect> {
        for client in clients {
            let next = self.gp.core().expected(client);
            for seq in next..next + burst {
                let tx = vec![client as u8, seq as u8];
                assert!(self.pipe.push_intake(ClientSubmit { client, seq, tx }));
            }
        }
        self.ticks += 1;
        let effects = self.gp.on_tick();
        self.record(effects)
    }

    fn record(&mut self, effects: Vec<OrderEffect>) -> Vec<OrderEffect> {
        self.effects.extend(effects.iter().cloned());
        self.notices.extend(self.pipe.drain_notices());
        effects
    }
}

/// Hand-pumps a gateway-fronted cluster in a seeded random delivery order
/// with scripted client intake — every `period` deliveries the next node
/// in turn gets a burst from its four clients, over capacity every third
/// time — until the horizon is reached and the network is empty, then
/// offers one more burst to the wound-down nodes. The last `silent` nodes
/// never take a step.
fn pump_gateways(n: usize, silent: usize, seed: u64, per_message: bool) -> Vec<GatewayNode> {
    let cfg = Config::max_resilience(n).expect("n >= 4");
    let live = n - silent;
    let opts =
        OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 5, ..OrderOptions::default() };
    let mut nodes: Vec<GatewayNode> = (0..live)
        .map(|i| {
            let pipe = GatewayPipe::new();
            let inner = OrderProcess::new(cfg, NodeId::new(i), opts, Vec::new(), move |inst| {
                CommonCoin::new(seed, inst)
            });
            GatewayNode {
                gp: GatewayProcess::new(inner, pipe.clone()),
                pipe,
                per_message,
                ticks: 0,
                effects: Vec::new(),
                notices: Vec::new(),
            }
        })
        .collect();
    let clients_of = |i: usize| (4 * i as u64)..(4 * i as u64 + 4);

    let mut rng = proptest::TestRng::deterministic(seed);
    let mut net: Vec<InFlight> = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let effects = node.gp.on_start();
        let effects = node.record(effects);
        fan_out(&mut net, live, NodeId::new(i), effects);
    }

    let period = (n * n) as u64;
    let (mut step, mut bursts) = (0u64, 0usize);
    while !net.is_empty() {
        let (from, to, msg) = net.swap_remove(rng.below(net.len() as u64) as usize);
        let effects = nodes[to.index()].deliver(from, &msg);
        fan_out(&mut net, live, to, effects);
        step += 1;
        if step.is_multiple_of(period) {
            let i = bursts % live;
            // Mempool capacity is 4: a burst of 1 each fits an empty one,
            // a burst of 3 each overruns it (backpressure, then gaps).
            let burst = if bursts.is_multiple_of(3) { 3 } else { 1 };
            bursts += 1;
            let effects = nodes[i].intake(clients_of(i), burst);
            fan_out(&mut net, live, NodeId::new(i), effects);
        }
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        assert!(node.gp.is_halted(), "n={n} seed={seed}: node {i} must wind down");
        let effects = node.intake(clients_of(i), 1);
        assert!(effects.is_empty(), "a halted gateway only NACKs");
    }
    nodes
}

/// Differential: the gated gateway against the drain-poke-scan-per-message
/// reference — identical logs, client notices and effects — and the gate
/// holds: the gated side runs the ACS fixpoint per rule event and tick,
/// the reference once more per message.
#[test]
fn gated_gateway_matches_a_drain_poke_scan_per_message_reference() {
    for (n, silent, seed) in [(4, 0, 5u64), (4, 1, 11), (7, 2, 23), (10, 3, 42)] {
        let gated = pump_gateways(n, silent, seed, false);
        let reference = pump_gateways(n, silent, seed, true);
        let log = gated[0].gp.inner().log().to_vec();
        assert!(!log.is_empty(), "n={n}: client traffic must reach the log");
        for (i, (got, want)) in gated.iter().zip(&reference).enumerate() {
            let at = format!("n={n} silent={silent} seed={seed} node {i}");
            assert_eq!(got.gp.inner().log().to_vec(), log, "{at}: logs disagree");
            assert_eq!(want.gp.inner().log().to_vec(), log, "{at}: reference log differs");
            assert_eq!(got.gp.output(), want.gp.output(), "{at}: outputs differ");
            assert!(got.effects == want.effects, "{at}: effect sequences differ");
            assert_eq!(got.notices, want.notices, "{at}: client notices differ");
            assert!(
                got.notices.iter().any(|n| matches!(n, GatewayNotice::Committed { .. }))
                    && got.notices.iter().any(|n| matches!(n, GatewayNotice::Rejected { .. })),
                "{at}: the script must draw both acks and NACKs"
            );

            let epochs = got.gp.inner().committed_epochs();
            let bound = (4 * n as u64 + 8) * epochs + got.ticks;
            let (runs, ref_runs) =
                (got.gp.inner().fixpoint_runs(), want.gp.inner().fixpoint_runs());
            assert!(runs <= bound, "{at}: {runs} fixpoint runs exceed (4n+8)·epochs + ticks");
            assert!(ref_runs > 4 * bound, "{at}: the reference pokes per message ({ref_runs})");
        }
    }
}

/// What appending used to do to a committed body: one owned payload per
/// entry, the whole body as one opaque payload if it is malformed. Kept
/// as the reference the log view is compared against.
fn reference_decode_batch(bytes: &[u8]) -> Vec<Vec<u8>> {
    fn well_formed(bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
        let word = |at: usize| -> Option<usize> {
            let raw = bytes.get(at..at.checked_add(4)?)?;
            Some(u32::from_le_bytes(raw.try_into().ok()?) as usize)
        };
        let count = word(0)?;
        let mut at = 4usize;
        let mut txs = Vec::new();
        for _ in 0..count {
            let len = word(at)?;
            txs.push(bytes.get(at + 4..(at + 4).checked_add(len)?)?.to_vec());
            at += 4 + len;
        }
        (at == bytes.len()).then_some(txs)
    }
    well_formed(bytes).unwrap_or_else(|| vec![bytes.to_vec()])
}

/// What one proposer does with its epoch's batch body in the log-view
/// proptest.
#[derive(Clone, Debug)]
enum Body {
    /// Proposes its mempool's batch untouched.
    Honest,
    /// A well-formed batch of these payloads (none: an empty batch).
    Batch(Vec<Vec<u8>>),
    /// These bytes as they are (almost surely malformed; may be empty).
    Raw(Vec<u8>),
    /// A well-formed batch with trailing garbage: malformed.
    Trailing(Vec<Vec<u8>>),
}

fn body_strategy() -> impl Strategy<Value = Body> {
    let txs = || proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..6), 0..4);
    prop_oneof![
        Just(Body::Honest),
        txs().prop_map(Body::Batch),
        proptest::collection::vec(0u8..=255, 0..12).prop_map(Body::Raw),
        txs().prop_map(Body::Trailing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `log().to_vec()` is the per-payload log that decoding every committed
    /// body at append time used to build — for honest batches, empty
    /// batches, malformed bodies (one opaque entry each) and after a
    /// `truncate_below` in the middle. Node 3 plays the Byzantine proposer:
    /// the body of its `Send` is swapped in flight, identically for every
    /// recipient, which is all reliable broadcast promises about it.
    #[test]
    fn log_view_matches_per_slot_decode_batch(
        bodies in proptest::collection::vec(body_strategy(), 4),
        cut in 0u64..=4,
        seed in 0u64..100_000,
    ) {
        let (n, epochs) = (4usize, bodies.len() as u64);
        let cfg = Config::new(n, 1).expect("valid");
        let opts =
            OrderOptions { batch_max: 2, pipeline_depth: 2, epochs, ..OrderOptions::default() };
        // Node 0's mempool runs dry half way: its later batches are empty.
        let mut nodes: Vec<_> = (0..n)
            .map(|i| {
                let id = NodeId::new(i);
                let txs = if i == 0 { epochs } else { 2 * epochs };
                let workload = (0..txs).map(|t| vec![i as u8, t as u8]).collect();
                OrderProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(seed, inst))
            })
            .collect();

        // Every body as broadcast, after the swap: what RBC delivers.
        let mut sent: BTreeMap<(u64, NodeId), Vec<u8>> = BTreeMap::new();
        let mut rng = proptest::TestRng::deterministic(seed);
        let mut net: Vec<InFlight> = Vec::new();
        let mut swap_and_fan_out = |net: &mut Vec<InFlight>, me, effects: Vec<OrderEffect>| {
            for effect in effects {
                let Effect::Broadcast { mut msg } = effect else { continue };
                if let OrderMessage::Batch(RbcMuxMessage {
                    sender,
                    tag,
                    msg: RbcMessage::Send(body),
                }) = &mut msg
                {
                    if me == NodeId::new(3) {
                        match &bodies[*tag as usize] {
                            Body::Honest => {}
                            Body::Batch(txs) => *body = encode_batch(txs),
                            Body::Raw(raw) => *body = raw.clone(),
                            Body::Trailing(txs) => {
                                *body = encode_batch(txs);
                                body.push(0xEE);
                            }
                        }
                    }
                    sent.insert((*tag, *sender), body.clone());
                }
                net.extend((0..n).map(|to| (me, NodeId::new(to), msg.clone())));
            }
        };
        for p in nodes.iter_mut() {
            let (me, effects) = (p.id(), p.on_start());
            swap_and_fan_out(&mut net, me, effects);
        }
        while !net.is_empty() {
            let (from, to, msg) = net.swap_remove(rng.below(net.len() as u64) as usize);
            let effects = nodes[to.index()].on_message(from, &msg);
            swap_and_fan_out(&mut net, to, effects);
        }

        for p in nodes.iter_mut() {
            prop_assert_eq!(p.committed_epochs(), epochs);
            let view = p.log();
            // The reference log: every retained slot's delivered body,
            // decoded the old way.
            let mut want: OrderLog = Vec::new();
            for slot in view.slots() {
                let (epoch, proposer) = (slot.epoch(), slot.proposer());
                let body = sent.get(&(epoch, proposer)).expect("a committed slot was broadcast");
                let txs = reference_decode_batch(body);
                prop_assert!(!txs.is_empty(), "empty batches hold no slot");
                prop_assert_eq!(slot.txs().map(<[u8]>::to_vec).collect::<Vec<_>>(), txs.clone());
                want.extend(txs.into_iter().map(|tx| LogEntry { epoch, proposer, tx }));
            }
            let order: Vec<_> = view.slots().iter().map(|s| (s.epoch(), s.proposer())).collect();
            prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "slots in (epoch, proposer) order");
            // n − f slots an epoch are accepted; only an empty batch (node
            // 0's late ones, the Byzantine proposer's) may go unretained.
            for e in 0..epochs {
                let kept = order.iter().filter(|(epoch, _)| *epoch == e).count();
                prop_assert!(kept >= 1, "epoch {} retains {} slots", e, kept);
            }
            prop_assert_eq!(view.to_vec(), want.clone());
            prop_assert_eq!(view.len(), want.len());
            prop_assert_eq!(p.output(), Some(want.clone()));

            let below = want.iter().filter(|entry| entry.epoch < cut).count();
            prop_assert_eq!(p.truncate_below(cut), below);
            prop_assert_eq!(p.log().to_vec(), want[below..].to_vec());
            prop_assert_eq!(p.log().len(), want.len() - below);
            prop_assert_eq!(
                p.log().slots_from(cut + 1).len(),
                order.iter().filter(|(epoch, _)| *epoch > cut).count()
            );
        }
        let first = nodes[0].log().to_vec();
        prop_assert!(nodes.iter().all(|p| p.log().to_vec() == first), "logs agree");
    }

    /// The state machine folds a payload borrowed from a batch body exactly
    /// as it folds the owned entry: same chain hash, same map, same
    /// counters — well-formed operations and garbage alike.
    #[test]
    fn kv_state_applies_borrowed_and_owned_payloads_alike(
        ops in proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec(0u8..4, 0..3),
                proptest::collection::vec(0u8..=255, 0..5),
            ),
            1..24,
        ),
    ) {
        let (mut by_tx, mut by_slot) = (KvState::new(), KvState::new());
        for (i, (kind, key, value)) in ops.into_iter().enumerate() {
            let tx = match kind {
                0 => KvOp::Put { key, value }.encode(),
                1 => KvOp::Del { key }.encode(),
                2 => KvOp::Cas { key, expect: value.clone(), value }.encode(),
                _ => value, // not an operation at all
            };
            let (epoch, proposer) = (i as u64 / 4, NodeId::new(i % 4));
            by_tx.apply_tx(epoch, proposer, &tx);
            by_slot.apply_slot(&LogEntry { epoch, proposer, tx });
            prop_assert_eq!(by_tx.chain(), by_slot.chain());
        }
        prop_assert_eq!(by_tx.state_hash(), by_slot.state_hash());
        prop_assert_eq!(by_tx, by_slot);
    }
}
