//! The ordering core runs its ACS fixpoint only after the events that can
//! change a rule's input (a batch delivery, an agreement decision, an
//! agreement halt, the first message of the next epoch to open); the
//! client gateway in front of it does its own work only when a slot
//! reaches the log; and the log keeps committed slots as their batch
//! bodies instead of a copy per payload. The properties here pin that each
//! is only *fewer calls* or *fewer copies*, never different behaviour:
//!
//! * **fixpoint invariant** — after every single `on_message`, a full
//!   `poke()` finds nothing to do, whatever the mempools hold;
//! * **opening rule** — an epoch opens when its node is idle, holds a full
//!   batch, or has a peer's message for it, in exactly the step that makes
//!   that so and never past the pipeline depth, scripted one trigger at a
//!   time on the same pump;
//! * **pipelining** — a deeper pipeline orders the same payloads in fewer
//!   simulated ticks;
//! * **differential** — against a reference that pokes after every
//!   delivery (the behaviour before the gating), a simulated cluster
//!   produces the same logs, the same per-node effect sequences and the
//!   same message totals;
//! * **gateway differential** — a gated `GatewayProcess` cluster against
//!   one that drains, pokes and scans after every message: same logs,
//!   same client notices, same effects;
//! * **quiescence** — a gateway cluster sends nothing until its first
//!   payload and nothing once its payloads are in the log, however often
//!   it is ticked, and winds down to its horizon once its intakes are
//!   finished;
//! * **prefix commit** — a slot is appended once it and every earlier slot
//!   of its epoch have decided: every log is a prefix of the final one
//!   after every message, a gateway acks a payload before its epoch
//!   completes, and a payload's slot is appended before its epoch
//!   completes when the silent nodes hold the high indices, at completion
//!   when they hold the low ones;
//! * **log view** — `log().to_vec()` is the per-payload log an
//!   append-time `decode_batch` used to build, for any committed body;
//! * **apply** — `KvState` folds a borrowed payload exactly as it folds
//!   an owned entry.

use async_bft::adversary::Silent;
use async_bft::coin::CommonCoin;
use async_bft::net::{ClientSubmit, GatewayNotice, GatewayPipe};
use async_bft::obs::{MetricsSink, Obs};
use async_bft::order::gateway::{parse_stamp, GatewayProcess};
use async_bft::order::{
    encode_batch, LogEntry, OpenCounts, OrderLog, OrderMessage, OrderOptions, OrderProcess,
};
use async_bft::rbc::{RbcMessage, RbcMuxMessage};
use async_bft::sim::{StopPolicy, UniformDelay, World, WorldConfig};
use async_bft::smr::{KvOp, KvState};
use async_bft::types::{Config, Effect, NodeId, Process};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

type OrderEffect = Effect<OrderMessage, OrderLog>;

fn options(batch_max: usize, pipeline_depth: usize, epochs: u64) -> OrderOptions {
    OrderOptions { batch_max, pipeline_depth, epochs, ..OrderOptions::default() }
}

/// How much each node's mempool holds at the start of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Load {
    /// `epochs × batch_max` payloads: a full batch for every epoch.
    Full,
    /// Node `i` holds `(i mod 3) × epochs` payloads: full batches next to
    /// half-empty and empty mempools, so epochs open under every trigger.
    Uneven,
    /// Nothing: every epoch is an empty one.
    Idle,
}

impl Load {
    /// Payloads preloaded at node `i`.
    fn at(self, i: usize, opts: OrderOptions) -> u64 {
        match self {
            Load::Full => opts.epochs * opts.batch_max as u64,
            Load::Uneven => (i % 3) as u64 * opts.epochs,
            Load::Idle => 0,
        }
    }
}

/// A node whose mempool is preloaded with `txs` payloads `[id, t]`.
fn node_with(
    cfg: Config,
    id: NodeId,
    opts: OrderOptions,
    seed: u64,
    txs: u64,
) -> OrderProcess<CommonCoin> {
    let workload = (0..txs).map(|t| vec![id.index() as u8, t as u8]).collect();
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

/// The epoch a message belongs to.
fn epoch_of(msg: &OrderMessage) -> u64 {
    match msg {
        OrderMessage::Batch(m) => m.tag,
        OrderMessage::Aba { epoch, .. } => *epoch,
    }
}

/// The batch `Send` that opens `sender`'s epoch `epoch` with `txs`.
fn opening(sender: NodeId, epoch: u64, txs: &[Vec<u8>]) -> OrderMessage {
    let msg = RbcMessage::Send(encode_batch(txs));
    OrderMessage::Batch(RbcMuxMessage { sender, tag: epoch, msg })
}

/// The epochs `me` opens in `effects`: its own batch `Send`s, in order.
fn opened_in(me: NodeId, effects: &[OrderEffect]) -> Vec<u64> {
    let own_send = |effect: &OrderEffect| match effect {
        Effect::Broadcast {
            msg: OrderMessage::Batch(RbcMuxMessage { sender, tag, msg: RbcMessage::Send(_) }),
        } if *sender == me => Some(*tag),
        _ => None,
    };
    effects.iter().filter_map(own_send).collect()
}

/// A cluster of bare ordering nodes pumped by hand: messages wait in `net`
/// until the test delivers them, one at a time, in the order it chooses,
/// and the fixpoint invariant is checked after every delivery. The last
/// `silent` of the `n` nodes never take a step. Everything node 0 sends
/// during the first `lag_steps` deliveries is held back until then, so the
/// others commit early epochs with its slot decided 0 (the input-0 path and
/// the re-proposal path).
struct Pumped {
    nodes: Vec<OrderProcess<CommonCoin>>,
    net: Vec<InFlight>,
    held: Vec<InFlight>,
    lag_steps: u64,
    step: u64,
    rng: proptest::TestRng,
    /// The run's parameters, for assertion messages.
    at: String,
}

impl Pumped {
    /// Builds and starts the cluster; node `i`'s mempool is preloaded with
    /// `preload(i)` payloads.
    fn start(
        (n, silent): (usize, usize),
        opts: OrderOptions,
        lag_steps: u64,
        seed: u64,
        preload: impl Fn(usize) -> u64,
    ) -> Pumped {
        let cfg = Config::max_resilience(n).expect("n >= 4");
        let nodes = (0..n - silent)
            .map(|i| node_with(cfg, NodeId::new(i), opts, seed, preload(i)))
            .collect();
        let at = format!("n={n} depth={} seed={seed}", opts.pipeline_depth);
        let rng = proptest::TestRng::deterministic(seed);
        let mut pumped =
            Pumped { nodes, net: Vec::new(), held: Vec::new(), lag_steps, step: 0, rng, at };
        for i in 0..pumped.nodes.len() {
            let effects = pumped.nodes[i].on_start();
            pumped.send(NodeId::new(i), effects);
        }
        pumped
    }

    fn send(&mut self, me: NodeId, effects: Vec<OrderEffect>) {
        let lagging = me.index() == 0 && self.step < self.lag_steps;
        let pool = if lagging { &mut self.held } else { &mut self.net };
        fan_out(pool, self.nodes.len(), me, effects);
    }

    /// Delivers `net[at]`; returns its recipient and the epochs that
    /// recipient opened in the step.
    fn deliver(&mut self, at: usize) -> (NodeId, Vec<u64>) {
        let (from, to, msg) = self.net.swap_remove(at);
        self.step += 1;
        let p = &mut self.nodes[to.index()];
        let effects = p.on_message(from, &msg);

        let before = getters(p);
        let extra = p.poke();
        assert!(
            extra.is_empty(),
            "{} step={}: {msg} to {to} left {} effects to poke()",
            self.at,
            self.step,
            extra.len()
        );
        assert_eq!(getters(p), before, "{}: poke() moved a getter", self.at);

        let opened = opened_in(to, &effects);
        self.send(to, effects);
        (to, opened)
    }

    /// Delivers the first waiting message that `pick` accepts, if any.
    fn deliver_first(&mut self, pick: impl Fn(&InFlight) -> bool) -> Option<(NodeId, Vec<u64>)> {
        let at = self.net.iter().position(pick)?;
        Some(self.deliver(at))
    }

    /// Delivers uniformly random waiting messages until none is left;
    /// `each` sees the nodes and which of them stepped after every step.
    fn run(&mut self, mut each: impl FnMut(&[OrderProcess<CommonCoin>], usize)) {
        self.run_until(|nodes, stepped| {
            each(nodes, stepped);
            false
        });
    }

    /// [`Pumped::run`] that stops early once `done` says so.
    fn run_until(&mut self, mut done: impl FnMut(&[OrderProcess<CommonCoin>], usize) -> bool) {
        loop {
            if self.step >= self.lag_steps || self.net.is_empty() {
                self.net.append(&mut self.held);
            }
            if self.net.is_empty() {
                break;
            }
            let at = self.rng.below(self.net.len() as u64) as usize;
            let (to, _) = self.deliver(at);
            if done(&self.nodes, to.index()) {
                break;
            }
        }
    }

    /// Runs to the end and checks that every node reached the horizon,
    /// output the same log and wound down; returns that log.
    fn finish(mut self, epochs: u64) -> OrderLog {
        self.run(|_, _| {});
        let first = self.nodes[0].output().expect("the run completes");
        for p in &self.nodes {
            assert_eq!(p.committed_epochs(), epochs, "{}", self.at);
            assert_eq!(p.output().as_ref(), Some(&first), "{}", self.at);
            assert!(p.is_halted() && p.live_epochs() == 0, "wind-down collects every epoch");
        }
        first
    }
}

/// Pumps a cluster in a seeded random delivery order, the fixpoint invariant
/// checked after every delivery.
fn pump_checking_fixpoint(
    (n, silent): (usize, usize),
    depth: usize,
    load: Load,
    lag_steps: u64,
    seed: u64,
) {
    let epochs = depth as u64 + 1;
    let opts = options(2, depth, epochs);
    let mut pumped = Pumped::start((n, silent), opts, lag_steps, seed, |i| load.at(i, opts));
    pumped.run(|nodes, i| assert!(nodes[i].in_flight() <= depth as u64));
    if load == Load::Full {
        // A node that always holds a full batch never waits for a peer to
        // open an epoch (idle, full, join is the order of precedence): such
        // runs keep the schedule of a pipeline that opens every epoch as
        // soon as it has room.
        for p in &pumped.nodes {
            assert_eq!(p.opened().joined, 0, "{}: {:?}", pumped.at, p.opened());
        }
    }
    pumped.finish(epochs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After every `on_message`, `poke()` returns no effects and moves no
    /// getter: the early return never leaves work a full fixpoint pass
    /// would have done — every input of a rule has its trigger.
    #[test]
    fn every_message_leaves_a_fixpoint(
        n_pick in 0usize..3,
        depth_pick in 0usize..3,
        load_pick in 0usize..3,
        silent_all in proptest::bool::ANY,
        lag in proptest::bool::ANY,
        seed in 0u64..100_000,
    ) {
        let (n, depth) = ([4, 7, 10][n_pick], [1, 2, 4][depth_pick]);
        let load = [Load::Full, Load::Uneven, Load::Idle][load_pick];
        let silent = if silent_all { (n - 1) / 3 } else { 0 };
        let lag_steps = if lag { 40 * (n * n) as u64 } else { 0 };
        pump_checking_fixpoint((n, silent), depth, load, lag_steps, seed);
    }
}

/// Idle trigger: with nothing to order, a cluster advances one epoch at a
/// time however deep its pipeline may go — no node opens epoch `e + 1`
/// before some node has appended `e`, so a node holds a second epoch in
/// flight only while it trails the one that opened it — and it still
/// reaches a finite horizon, outputs and halts (`finish`).
#[test]
fn an_idle_cluster_opens_no_epoch_before_the_last_is_appended_and_reaches_its_horizon() {
    for (n, silent, seed) in [(4, 0, 7u64), (4, 1, 8), (7, 0, 9), (7, 2, 10)] {
        let epochs = 4;
        let mut pumped = Pumped::start((n, silent), options(2, 4, epochs), 0, seed, |_| 0);
        let mut in_flight = Vec::new();
        pumped.run(|nodes, i| {
            let appended = nodes.iter().map(|p| p.committed_epochs()).max().unwrap_or(0);
            let opened = nodes[i].committed_epochs() + nodes[i].in_flight();
            assert!(opened <= appended + 1, "n={n}: epoch {opened} raced epoch {appended}");
            in_flight.push(nodes[i].in_flight());
        });
        // One epoch in flight, more only while trailing the peer that
        // opened them: about one step in a hundred under this schedule.
        let deeper = in_flight.iter().filter(|&&open| open > 1).count();
        assert!(deeper * 10 < in_flight.len(), "n={n}: {deeper} of {}", in_flight.len());
        for p in &pumped.nodes {
            assert_eq!((p.opened().full, p.opened().idle + p.opened().joined), (0, epochs));
        }
        assert!(pumped.finish(epochs).is_empty());
    }
}

/// Full trigger: a node opens an epoch beside those in flight for every
/// full batch it holds, up to the pipeline depth, and for nothing less.
#[test]
fn a_full_batch_opens_an_epoch_beside_those_in_flight() {
    let cfg = Config::new(4, 1).expect("valid");
    let (batch_max, depth) = (3usize, 4usize);
    let opts = options(batch_max, depth, 9);
    let started = |txs: usize| {
        let mut p = node_with(cfg, NodeId::new(0), opts, 1, txs as u64);
        let opened = opened_in(p.id(), &p.on_start());
        assert_eq!(opened.len() as u64, p.in_flight());
        (p.in_flight(), p.pending_len(), p.opened())
    };
    let counts = |idle, full| OpenCounts { idle, full, joined: 0 };
    // The first epoch opens because nothing is in flight, whatever waits.
    assert_eq!(started(0), (1, 0, counts(1, 0)));
    assert_eq!(started(batch_max + 2), (1, 2, counts(1, 0)));
    assert_eq!(started(2 * batch_max), (2, 0, counts(1, 1)));
    assert_eq!(started(depth * batch_max - 1), (3, batch_max - 1, counts(1, 2)));
    // `depth × batch_max` preloaded fill the pipeline at the start …
    assert_eq!(started(depth * batch_max), (4, 0, counts(1, 3)));
    // … and no further: the depth stays the cap.
    assert_eq!(started((depth + 2) * batch_max), (4, 2 * batch_max, counts(1, 3)));

    // A submission can complete the batch; the host's `poke()` opens it.
    let mut p = node_with(cfg, NodeId::new(0), opts, 1, batch_max as u64 - 1);
    let _ = p.on_start();
    for t in 0..batch_max as u8 {
        assert!(p.poke().is_empty(), "{t} payloads of {batch_max} open nothing");
        p.submit(vec![9, t]).expect("room in the mempool");
    }
    assert_eq!(opened_in(p.id(), &p.poke()), vec![1]);
    assert_eq!((p.in_flight(), p.pending_len(), p.opened()), (2, 0, counts(1, 1)));
}

/// Node 0 of a four-node cluster with empty mempools, cut off: the other
/// three ran to the horizon without it, and every message they sent it is
/// still waiting in `net` for the test to deliver in the order it likes.
fn node_0_cut_off(depth: usize, epochs: u64, seed: u64) -> Pumped {
    let mut pumped = Pumped::start((4, 0), options(2, depth, epochs), 0, seed, |_| 0);
    while pumped.deliver_first(|(_, to, _)| to.index() != 0).is_some() {}
    assert!(pumped.nodes[1..].iter().all(|p| p.committed_epochs() == epochs));
    assert_eq!((pumped.nodes[0].committed_epochs(), pumped.nodes[0].in_flight()), (0, 1));
    pumped
}

/// Which kind of message carries the evidence in a join scenario.
#[derive(Clone, Copy, Debug)]
enum Evidence {
    Batch,
    Aba,
}

impl Evidence {
    /// Matches a message of this kind for `epoch` waiting for node 0.
    fn of(self, epoch: u64) -> impl Fn(&InFlight) -> bool {
        move |(_, to, msg)| {
            to.index() == 0
                && epoch_of(msg) == epoch
                && match self {
                    Evidence::Batch => matches!(msg, OrderMessage::Batch(_)),
                    Evidence::Aba => matches!(msg, OrderMessage::Aba { .. }),
                }
        }
    }
}

/// Join trigger: a node with an epoch in flight and nothing to order opens
/// the next one in the very step that delivers a peer's first message for
/// it — broadcast or agreement — not before and not after.
#[test]
fn a_peers_opening_is_joined_in_the_step_that_delivers_its_first_message() {
    for kind in [Evidence::Batch, Evidence::Aba] {
        let epochs = 3;
        let mut pumped = node_0_cut_off(4, epochs, 31);
        let opened = |step: Option<(NodeId, Vec<u64>)>| step.expect("such a message waits").1;
        // Not before: epoch 0's own traffic opens nothing.
        for _ in 0..3 {
            assert!(opened(pumped.deliver_first(kind.of(0))).is_empty(), "{kind:?}");
        }
        assert_eq!(opened(pumped.deliver_first(kind.of(1))), vec![1], "{kind:?}");
        assert_eq!(pumped.nodes[0].opened(), OpenCounts { idle: 1, full: 0, joined: 1 });
        // Not after: epoch 1's later messages open nothing more.
        for _ in 0..3 {
            assert!(opened(pumped.deliver_first(kind.of(1))).is_empty(), "{kind:?}");
        }
        assert_eq!(pumped.nodes[0].in_flight(), 2);
        pumped.finish(epochs);
    }
}

/// Evidence is read for the next epoch to open only: epoch 2's arriving
/// first opens nothing until epoch 1's does, and then both open.
#[test]
fn evidence_for_a_later_epoch_waits_for_the_one_before() {
    for (later, next) in [(Evidence::Batch, Evidence::Aba), (Evidence::Aba, Evidence::Batch)] {
        let epochs = 4;
        let mut pumped = node_0_cut_off(4, epochs, 32);
        let (_, opened) = pumped.deliver_first(later.of(2)).expect("epoch 2 ran");
        assert!(opened.is_empty() && pumped.nodes[0].in_flight() == 1);
        let (_, opened) = pumped.deliver_first(next.of(1)).expect("epoch 1 ran");
        assert_eq!(opened, vec![1, 2]);
        assert_eq!(pumped.nodes[0].opened(), OpenCounts { idle: 1, full: 0, joined: 2 });
        pumped.finish(epochs);
    }
}

/// Evidence that arrives while the pipeline is full is acted on by the
/// append that makes room, in that step.
#[test]
fn evidence_that_meets_a_full_pipeline_is_joined_at_the_append_that_makes_room() {
    for kind in [Evidence::Batch, Evidence::Aba] {
        let epochs = 4;
        let mut pumped = node_0_cut_off(2, epochs, 33);
        let (_, opened) = pumped.deliver_first(kind.of(1)).expect("epoch 1 ran");
        assert_eq!((opened, pumped.nodes[0].in_flight()), (vec![1], 2), "the pipeline is full");
        let (_, opened) = pumped.deliver_first(kind.of(2)).expect("epoch 2 ran");
        assert!(opened.is_empty(), "{kind:?}: depth 2 is the cap");
        // Epoch 0 alone runs at node 0 until it reaches the log.
        loop {
            let epoch_0 = |(_, to, msg): &InFlight| to.index() == 0 && epoch_of(msg) == 0;
            let (_, opened) = pumped.deliver_first(epoch_0).expect("epoch 0 appends");
            if pumped.nodes[0].committed_epochs() == 1 {
                assert_eq!(opened, vec![2], "{kind:?}: the append opens the waiting epoch");
                break;
            }
            assert!(opened.is_empty(), "{kind:?}: opened {opened:?} with a full pipeline");
        }
        assert_eq!(pumped.nodes[0].opened(), OpenCounts { idle: 1, full: 0, joined: 2 });
        pumped.finish(epochs);
    }
}

/// A payload submitted while an epoch is in flight rides in the next one:
/// it is in the log exactly one epoch later (with f nodes silent every
/// live proposer's slot is accepted, so the epoch is exact).
#[test]
fn a_payload_submitted_mid_epoch_is_in_the_log_one_epoch_later() {
    let epochs = 5;
    let mut pumped = Pumped::start((4, 1), options(2, 4, epochs), 0, 41, |_| 0);
    let mut steps = 0;
    pumped.run_until(|_, _| {
        steps += 1;
        steps == 200
    });
    let tx = b"mid-epoch".to_vec();
    let p = &mut pumped.nodes[1];
    let (submitter, epoch) = (p.id(), p.committed_epochs());
    assert_eq!(p.in_flight(), 1, "epoch {epoch} is in flight");
    p.submit(tx.clone()).expect("an empty mempool takes it");
    assert!(p.poke().is_empty(), "one payload opens no epoch beside the one in flight");
    let log = pumped.finish(epochs);
    assert_eq!(log, vec![LogEntry { epoch: epoch + 1, proposer: submitter, tx }]);
}

/// A batch whose slot was decided 0 goes back to the mempool and rides in
/// the next epoch its node opens: node 0 lags, the others commit epoch 0
/// without it, and its payloads still commit, once.
#[test]
fn a_batch_left_out_of_its_epoch_is_opened_again_and_commits() {
    let (epochs, lag_steps) = (6, 3_000);
    let mut pumped =
        Pumped::start((4, 0), options(2, 2, epochs), lag_steps, 43, |i| if i == 0 { 2 } else { 0 });
    pumped.run(|nodes, i| assert!(nodes[i].in_flight() <= 2));
    let log = pumped.finish(epochs);
    let node_0 = NodeId::new(0);
    assert_eq!(
        log.iter().map(|entry| (entry.proposer, entry.tx.clone())).collect::<Vec<_>>(),
        vec![(node_0, vec![0, 0]), (node_0, vec![0, 1])],
    );
    assert!(log[0].epoch > 0, "node 0 was meant to miss epoch 0");
    assert_eq!(log[0].epoch, log[1].epoch, "the batch stays together");
}

/// A faulty node that opens every epoch as early as it can — its batch
/// `Send` for each one is on the wire from the start — and is silent
/// otherwise. The correct nodes join each epoch as soon as they have room:
/// the schedule of a pipeline that opens eagerly, never deeper than
/// `pipeline_depth`; their logs agree and hold every payload they
/// submitted.
#[test]
fn a_faulty_early_opener_drives_the_pipeline_to_its_depth_and_no_further() {
    let (n, depth, epochs, per_node) = (4usize, 2usize, 8u64, 3u64);
    let faulty = NodeId::new(n - 1);
    let mut pumped = Pumped::start((n, 1), options(2, depth, epochs), 0, 51, |_| per_node);
    for epoch in 0..epochs {
        let send = Effect::Broadcast { msg: opening(faulty, epoch, &[b"faulty".to_vec()]) };
        pumped.send(faulty, vec![send]);
    }
    let mut deepest = 0;
    pumped.run(|nodes, i| {
        assert!(nodes[i].in_flight() <= depth as u64, "past the pipeline depth");
        deepest = deepest.max(nodes[i].in_flight());
    });
    assert_eq!(deepest, depth as u64, "the opener's epochs are joined while there is room");
    assert!(pumped.nodes.iter().all(|p| p.opened().joined > 0));
    let log = pumped.finish(epochs);
    for i in 0..n - 1 {
        for t in 0..per_node {
            let tx = vec![i as u8, t as u8];
            assert_eq!(log.iter().filter(|entry| entry.tx == tx).count(), 1, "payload {tx:?}");
        }
    }
}

/// What a faulty node sends for an epoch far ahead is state like any other
/// (the horizon bounds it) but opens nothing: evidence is read for the
/// next epoch only.
#[test]
fn a_send_for_a_far_epoch_opens_nothing_early() {
    let cfg = Config::new(4, 1).expect("valid");
    let far = 1_000_000;
    let mut p = node_with(cfg, NodeId::new(0), options(2, 4, 2 * far), 1, 0);
    assert_eq!(opened_in(p.id(), &p.on_start()), vec![0]);
    let faulty = NodeId::new(3);
    let effects = p.on_message(faulty, &opening(faulty, far, &[]));
    assert!(opened_in(p.id(), &effects).is_empty());
    assert!(p.poke().is_empty());
    assert_eq!((p.in_flight(), p.opened().joined), (1, 0));
    // The next epoch's opening is still joined.
    let effects = p.on_message(faulty, &opening(faulty, 1, &[]));
    assert_eq!(opened_in(p.id(), &effects), vec![1]);
}

/// Prefix commit: a slot reaches the log once it and every earlier slot of
/// its epoch have decided (and the accepted ones delivered), so after every
/// delivered message each node's log is a prefix of the log the run ends
/// with. The silent nodes hold the highest indices, so the last slots of
/// every epoch decide 0 one agreement later than the rest, and logs do hold
/// part of their head epoch.
#[test]
fn after_every_message_each_log_is_a_prefix_of_the_final_log() {
    for (n, silent, seed) in [(4, 1, 71u64), (7, 2, 72), (10, 3, 73)] {
        let (epochs, opts) = (3, options(2, 2, 3));
        let start = || Pumped::start((n, silent), opts, 0, seed, |i| Load::Full.at(i, opts));
        let last = start().finish(epochs);
        let mut pumped = start();
        // Logs only grow here, so one whose length a step left alone is
        // still the prefix it was.
        let (mut checked, mut mid_epoch) = (vec![0; n - silent], 0);
        pumped.run(|nodes, i| {
            let len = nodes[i].log().len();
            if len == checked[i] {
                return;
            }
            checked[i] = len;
            let log = nodes[i].log().to_vec();
            assert_eq!(last.get(..log.len()), Some(&log[..]), "n={n}: node {i} left the prefix");
            let head = nodes[i].committed_epochs();
            mid_epoch += usize::from(log.last().is_some_and(|entry| entry.epoch == head));
        });
        assert!(mid_epoch > 0, "n={n}: no log ever held part of its head epoch");
    }
}

/// The gateway acknowledges a payload as soon as its slot is in the log: with
/// node 3 silent its slot decides 0 one agreement after the other three
/// decided 1, and node 0 has acked its client's payload while that payload's
/// epoch is still the head — not yet counted in `committed_epochs()`.
#[test]
fn a_gateway_acks_a_payload_before_its_epoch_completes() {
    let (n, live, seed) = (4, 3, 81);
    let (mut nodes, mut net) = start_gateways(n, live, options(2, 2, 3), seed, false);
    let node_0 = NodeId::new(0);
    let effects = nodes[0].intake(7..8, 1);
    fan_out(&mut net, live, node_0, effects);
    let mut rng = proptest::TestRng::deterministic(seed);
    while nodes[0].notices.is_empty() {
        let (from, to, msg) = net.swap_remove(rng.below(net.len() as u64) as usize);
        let effects = nodes[to.index()].deliver(from, &msg);
        fan_out(&mut net, live, to, effects);
    }
    assert_eq!(nodes[0].notices, vec![GatewayNotice::Committed { client: 7, seq: 1 }]);
    let inner = nodes[0].gp.inner();
    let log = inner.log().to_vec();
    let entry = log.iter().find(|entry| parse_stamp(&entry.tx).is_some()).expect("acked is logged");
    assert_eq!(inner.committed_epochs(), entry.epoch, "acked only once its epoch completed");
}

/// What [`Stamped`] nodes record: the simulated tick at which each
/// `(epoch, slot)` reached the append cursor and each epoch completed.
#[derive(Default)]
struct AppendTicks {
    slots: BTreeMap<(u64, usize), u64>,
    epochs: BTreeMap<u64, u64>,
}

/// An `OrderProcess` that stamps simulated time, read off the world's
/// observer clock, on every move of its append cursor.
struct Stamped {
    inner: OrderProcess<CommonCoin>,
    n: usize,
    clock: Obs,
    cursor: (u64, usize),
    ticks: Arc<Mutex<AppendTicks>>,
}

impl Stamped {
    fn stamp(&mut self, effects: Vec<OrderEffect>) -> Vec<OrderEffect> {
        let now = self.clock.now();
        let mut ticks = self.ticks.lock().expect("no panics hold this lock");
        while self.cursor < self.inner.append_cursor() {
            let (epoch, slot) = self.cursor;
            ticks.slots.insert(self.cursor, now);
            self.cursor = if slot + 1 == self.n {
                ticks.epochs.insert(epoch, now);
                (epoch + 1, 0)
            } else {
                (epoch, slot + 1)
            };
        }
        effects
    }
}

impl Process for Stamped {
    type Msg = OrderMessage;
    type Output = OrderLog;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<OrderEffect> {
        let effects = self.inner.on_start();
        self.stamp(effects)
    }

    fn on_message(&mut self, from: NodeId, msg: &OrderMessage) -> Vec<OrderEffect> {
        let effects = self.inner.on_message(from, msg);
        self.stamp(effects)
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

/// One seeded simulated run at n = 7 with the two nodes `silent` never
/// sending: over every payload at every correct node, the mean tick at
/// which its slot was appended and the mean tick at which its epoch
/// completed.
fn append_and_completion_ticks(silent: [usize; 2]) -> (f64, f64) {
    let cfg = Config::new(7, 2).expect("valid");
    let (seed, opts) = (5, options(2, 2, 6));
    let (clock, _sink) = Obs::new(MetricsSink::new());
    let mut world = World::new(WorldConfig::new(cfg.n()), UniformDelay::new(1, 20, seed));
    world.set_observer(clock.clone());
    let mut recorders = Vec::new();
    for id in cfg.nodes() {
        if silent.contains(&id.index()) {
            world.add_faulty_process(Box::new(Silent::<OrderMessage, OrderLog>::new(id)));
            continue;
        }
        let ticks = Arc::new(Mutex::new(AppendTicks::default()));
        recorders.push(Arc::clone(&ticks));
        let inner = node_with(cfg, id, opts, seed, Load::Full.at(id.index(), opts));
        world.add_process(Box::new(Stamped {
            inner,
            n: 7,
            clock: clock.clone(),
            cursor: (0, 0),
            ticks,
        }));
    }
    let report = world.run();
    let log = report.unanimous_output().expect("every correct node outputs the same log");
    let (mut appended, mut completed) = (0u64, 0u64);
    for ticks in &recorders {
        let ticks = ticks.lock().expect("no panics hold this lock");
        for entry in &log {
            appended += ticks.slots[&(entry.epoch, entry.proposer.index())];
            completed += ticks.epochs[&entry.epoch];
        }
    }
    let payloads = (log.len() * recorders.len()) as f64;
    (appended as f64 / payloads, completed as f64 / payloads)
}

/// Fairness of a fixed slot order (n = 7, f = 2 silent): with the silent
/// nodes at the highest indices every live slot is appended before its
/// epoch completes; with them at the lowest, every live slot waits for the
/// two that decide 0 last, so a payload is appended exactly when its epoch
/// completes — when it was appended before prefix commit.
#[test]
fn silent_high_indices_append_before_completion_and_silent_low_ones_at_it() {
    let (high_appended, high_completed) = append_and_completion_ticks([5, 6]);
    let (low_appended, low_completed) = append_and_completion_ticks([0, 1]);
    println!(
        "silent {{5,6}}: appended {high_appended:.1}, completed {high_completed:.1}; \
         silent {{0,1}}: appended {low_appended:.1}, completed {low_completed:.1}"
    );
    assert!(high_appended < high_completed);
    assert_eq!(low_appended, low_completed);
}

/// One seeded simulated run of `epochs` epochs (n = 4, batches of 4, a
/// full batch preloaded for every epoch) at pipeline depth `depth`: the
/// metrics sink, the payloads ordered and the ticks to completion.
fn pipelined_run(epochs: u64, depth: usize) -> (MetricsSink, usize, u64) {
    let cfg = Config::new(4, 1).expect("valid");
    let (seed, opts) = (7, options(4, depth, epochs));
    let (obs, shared) = Obs::new(MetricsSink::new());
    let mut world = World::new(WorldConfig::new(cfg.n()), UniformDelay::new(1, 20, seed));
    world.set_observer(obs.clone());
    for id in cfg.nodes() {
        let node = node_with(cfg, id, opts, seed, Load::Full.at(id.index(), opts));
        world.add_process(Box::new(node.with_obs(obs.clone())));
    }
    let report = world.run();
    drop(obs);
    let sink = shared.try_into_inner().expect("observer handles dropped with the world");
    let log = report.unanimous_output().expect("every node outputs the same log");
    (sink, log.len(), report.end_time.ticks())
}

/// A deeper pipeline overlaps epoch `e + 1`'s broadcast with epoch `e`'s
/// agreement, so the same workload completes in fewer simulated ticks:
/// higher throughput at an equal count of ordered payloads.
#[test]
fn deeper_pipeline_raises_sim_throughput() {
    let (_, txs_seq, ticks_seq) = pipelined_run(5, 1);
    let (sink, txs_deep, ticks_deep) = pipelined_run(5, 4);
    assert_eq!(txs_seq, txs_deep, "pipelining must not change what gets ordered");
    assert!(ticks_deep < ticks_seq, "depth 4 took {ticks_deep} ticks, depth 1 {ticks_seq}");
    assert!(sink.max_pipeline_occupancy() > 1, "the deep run must actually overlap epochs");
    assert_eq!(sink.epochs_committed(), 5 * 4, "5 epochs at each of 4 nodes");
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
    (n, depth, load): (usize, usize, Load),
    seed: u64,
    poke_every_message: bool,
) -> (OrderLog, Vec<Vec<OrderEffect>>, (u64, u64)) {
    let cfg = Config::max_resilience(n).expect("n >= 4");
    let opts = options(2, depth, depth as u64 + 2);
    // Run to the last halt, so the wind-down (epoch GC after the halting
    // gadget, the final `Halt` effect) is part of what is compared.
    let world_cfg = WorldConfig::new(n).stop_policy(StopPolicy::AllCorrectHalted);
    let mut world = World::new(world_cfg, UniformDelay::new(1, 12, seed));
    let mut recorders = Vec::new();
    for id in cfg.nodes() {
        let effects = Arc::new(Mutex::new(Vec::new()));
        recorders.push(Arc::clone(&effects));
        let inner = node_with(cfg, id, opts, seed, load.at(id.index(), opts));
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
    for run in [(4, 1, Load::Full), (4, 4, Load::Full), (7, 2, Load::Full), (4, 4, Load::Uneven)] {
        for seed in [3u64, 17, 4242] {
            let (log, effects, totals) = simulate(run, seed, false);
            let (ref_log, ref_effects, ref_totals) = simulate(run, seed, true);
            assert!(!log.is_empty());
            assert_eq!(log, ref_log, "{run:?} seed={seed}: logs differ");
            assert_eq!(totals, ref_totals, "{run:?} seed={seed}: sent/delivered");
            for (i, (got, want)) in effects.iter().zip(&ref_effects).enumerate() {
                assert!(got == want, "{run:?} seed={seed}: node {i}'s effects differ");
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

    /// The host ends the service: the intake is finished and the node
    /// ticked, as the reactor ticks a node after a pass with nothing to
    /// read.
    fn finish(&mut self) -> Vec<OrderEffect> {
        self.pipe.finish();
        self.tick()
    }

    /// One tick with nothing queued (a reactor pass that read nothing).
    fn tick(&mut self) -> Vec<OrderEffect> {
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

/// The first `live` of `n` gateway-fronted nodes with empty mempools,
/// started, and what they sent.
fn start_gateways(
    n: usize,
    live: usize,
    opts: OrderOptions,
    seed: u64,
    per_message: bool,
) -> (Vec<GatewayNode>, Vec<InFlight>) {
    let cfg = Config::max_resilience(n).expect("n >= 4");
    let mut nodes: Vec<GatewayNode> = (0..live)
        .map(|i| {
            let pipe = GatewayPipe::new();
            let inner = node_with(cfg, NodeId::new(i), opts, seed, 0);
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
    let mut net: Vec<InFlight> = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let effects = node.gp.on_start();
        let effects = node.record(effects);
        fan_out(&mut net, live, NodeId::new(i), effects);
    }
    (nodes, net)
}

/// Hand-pumps a gateway-fronted cluster in a seeded random delivery order
/// with scripted client intake — every `period` deliveries, and at once
/// whenever the network runs dry, the next node in turn gets a burst from
/// its four clients, over capacity every third time — until each node has
/// had two bursts. Once the network is empty after that, every intake is
/// finished, and the cluster is pumped until the horizon is reached and
/// the network is empty again; then one more burst is offered to the
/// wound-down nodes. The last `silent` nodes never take a step.
fn pump_gateways(n: usize, silent: usize, seed: u64, per_message: bool) -> Vec<GatewayNode> {
    let live = n - silent;
    let (mut nodes, mut net) = start_gateways(n, live, options(2, 2, 5), seed, per_message);
    assert!(net.is_empty(), "n={n} seed={seed}: idle gateways opened an epoch at start");
    let clients_of = |i: usize| (4 * i as u64)..(4 * i as u64 + 4);
    let mut rng = proptest::TestRng::deterministic(seed);

    let period = (n * n) as u64;
    let (mut step, mut bursts, mut finished) = (0u64, 0usize, false);
    loop {
        if net.is_empty() && bursts == 2 * live {
            if finished {
                break;
            }
            finished = true;
            for (i, node) in nodes.iter_mut().enumerate() {
                let effects = node.finish();
                fan_out(&mut net, live, NodeId::new(i), effects);
            }
            continue;
        }
        if !net.is_empty() {
            let (from, to, msg) = net.swap_remove(rng.below(net.len() as u64) as usize);
            let effects = nodes[to.index()].deliver(from, &msg);
            fan_out(&mut net, live, to, effects);
            step += 1;
        }
        if bursts < 2 * live && (net.is_empty() || step.is_multiple_of(period)) {
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

/// The append path's drain is a rule input: node 0 holds `batch_max − 1`
/// payloads beside two epochs in flight and one more submission is parked
/// in its pipe, un-ticked, when epoch 0 reaches its log. That drain
/// completes a batch, and the epoch it opens is among that step's effects —
/// not left for the next tick, which finds nothing to do.
#[test]
fn a_drain_at_an_append_that_completes_a_batch_opens_its_epoch_in_that_step() {
    let (n, live, seed) = (4, 3, 61);
    let (mut nodes, mut net) = start_gateways(n, live, options(2, 3, 6), seed, false);
    let node_0 = NodeId::new(0);
    assert!(net.is_empty(), "idle gateways open nothing at start");

    // The first payloads open epoch 0 on an idle pipeline; two more are a
    // full batch, and epoch 1 opens beside it.
    let effects = nodes[0].intake(0..2, 1);
    assert_eq!(opened_in(node_0, &effects), vec![0]);
    fan_out(&mut net, live, node_0, effects);
    let effects = nodes[0].intake(2..4, 1);
    assert_eq!(opened_in(node_0, &effects), vec![1]);
    fan_out(&mut net, live, node_0, effects);
    // A fifth waits alone (`batch_max − 1`), a sixth in the pipe.
    assert!(nodes[0].intake(4..5, 1).is_empty());
    assert!(nodes[0].pipe.push_intake(ClientSubmit { client: 5, seq: 1, tx: vec![5, 1] }));
    let inner = nodes[0].gp.inner();
    assert_eq!((inner.in_flight(), inner.pending_len()), (2, 1));

    // Epoch 0 runs alone, so that it is the only one to append.
    loop {
        let at = net.iter().position(|(_, _, msg)| epoch_of(msg) == 0).expect("epoch 0 appends");
        let (from, to, msg) = net.swap_remove(at);
        let effects = nodes[to.index()].deliver(from, &msg);
        let opened = opened_in(to, &effects);
        fan_out(&mut net, live, to, effects);
        if to == node_0 && nodes[0].gp.inner().committed_epochs() == 1 {
            assert_eq!(opened, vec![2], "the append's drain opens epoch 2");
            break;
        }
        assert!(to != node_0 || opened.is_empty(), "node 0 opened {opened:?} before the append");
    }
    let inner = nodes[0].gp.inner();
    assert_eq!((inner.in_flight(), inner.pending_len(), inner.opened().full), (2, 0, 2));
    assert!(nodes[0].gp.on_tick().is_empty(), "the step left the tick nothing to do");
}

/// Pumps the hand-held network in a seeded random order until it is empty.
fn pump_until_quiet(nodes: &mut [GatewayNode], net: &mut Vec<InFlight>, live: usize, seed: u64) {
    let mut rng = proptest::TestRng::deterministic(seed);
    while !net.is_empty() {
        let (from, to, msg) = net.swap_remove(rng.below(net.len() as u64) as usize);
        let effects = nodes[to.index()].deliver(from, &msg);
        fan_out(net, live, to, effects);
    }
}

/// Ticks every node `ticks` times; returns how many effects that drew.
fn tick_all(nodes: &mut [GatewayNode], ticks: usize) -> usize {
    let mut drawn = 0;
    for _ in 0..ticks {
        for node in nodes.iter_mut() {
            drawn += node.tick().len();
        }
    }
    drawn
}

/// A gateway cluster with an open intake orders payloads, not heartbeats:
/// from `on_start` to the first submission it sends nothing, however often
/// it is ticked; that submission opens epoch 0 at its node, whose peers
/// join it; and once the payload is acknowledged the cluster is silent
/// again for a hundred more ticks of every node.
#[test]
fn an_idle_gateway_cluster_sends_nothing_before_or_after_its_payloads() {
    let (n, live, seed) = (4, 3, 17);
    let (mut nodes, mut net) = start_gateways(n, live, options(2, 2, 5), seed, false);
    assert!(net.is_empty(), "idle gateways sent something at start");
    assert_eq!(tick_all(&mut nodes, 100), 0, "an idle tick drew effects");

    let node_0 = NodeId::new(0);
    let effects = nodes[0].intake(7..8, 1);
    assert_eq!(opened_in(node_0, &effects), vec![0], "the first payload opens epoch 0");
    fan_out(&mut net, live, node_0, effects);
    pump_until_quiet(&mut nodes, &mut net, live, seed);

    assert_eq!(nodes[0].notices, vec![GatewayNotice::Committed { client: 7, seq: 1 }]);
    for (i, node) in nodes.iter().enumerate() {
        let inner = node.gp.inner();
        assert_eq!(inner.committed_epochs(), 1, "node {i}: only the payload's epoch ran");
        assert_eq!(inner.log().len(), 1, "node {i}: the payload is in the log");
        assert_eq!(
            inner.opened(),
            OpenCounts { idle: u64::from(i == 0), full: 0, joined: u64::from(i != 0) }
        );
    }
    assert_eq!(tick_all(&mut nodes, 100), 0, "a committed cluster drew effects");
    for node in &nodes {
        assert!(node.gp.output().is_none() && !node.gp.is_halted(), "no horizon yet");
    }
}

/// Finishing the intakes winds a quiet gateway cluster down: each node
/// orders what it still holds (a submission parked in a pipe when the
/// host finished it included), heartbeats the remaining epochs, and
/// surfaces its log as `Output`, then `Halt`s, at the horizon.
#[test]
fn finishing_the_intakes_winds_a_gateway_cluster_down_to_its_horizon() {
    let (n, live, seed, epochs) = (4, 3, 29, 5);
    let (mut nodes, mut net) = start_gateways(n, live, options(2, 2, epochs), seed, false);
    let effects = nodes[1].intake(3..4, 1);
    fan_out(&mut net, live, NodeId::new(1), effects);
    pump_until_quiet(&mut nodes, &mut net, live, seed);
    assert_eq!(tick_all(&mut nodes, 100), 0, "a committed cluster drew effects");
    assert!(nodes[2].pipe.push_intake(ClientSubmit { client: 9, seq: 1, tx: vec![9, 1] }));

    for (i, node) in nodes.iter_mut().enumerate() {
        let effects = node.finish();
        fan_out(&mut net, live, NodeId::new(i), effects);
    }
    pump_until_quiet(&mut nodes, &mut net, live, seed);

    let log = nodes[0].gp.inner().log().to_vec();
    assert_eq!(log.len(), 2, "both payloads are ordered");
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.gp.inner().committed_epochs(), epochs, "node {i} reached the horizon");
        assert_eq!(node.gp.output(), Some(log.clone()), "node {i}: output is the common log");
        assert!(node.gp.is_halted(), "node {i} did not halt");
        let tail: Vec<&OrderEffect> =
            node.effects.iter().filter(|e| matches!(e, Effect::Output(_) | Effect::Halt)).collect();
        assert!(
            matches!(tail.as_slice(), [Effect::Output(out), Effect::Halt] if *out == log),
            "node {i}: one Output of the log, then Halt"
        );
    }
    assert_eq!(
        nodes[2].notices,
        vec![GatewayNotice::Committed { client: 9, seq: 1 }],
        "the parked submission was admitted and acknowledged"
    );
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
