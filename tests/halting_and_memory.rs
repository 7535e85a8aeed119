//! Termination-gadget and state-bound tests: decided nodes halt, state
//! stays garbage-collected over long runs, and the simulator's
//! `AllCorrectHalted` stop policy composes with the protocol's halting.

use async_bft::coin::{CommonCoin, FixedCoin, LocalCoin};
use async_bft::consensus::{BrachaNode, BrachaOptions, BrachaProcess, Transition};
use async_bft::sim::{StopPolicy, UniformDelay, World, WorldConfig};
use async_bft::types::{Config, NodeId, Value};

#[test]
fn whole_cluster_halts_not_just_decides() {
    let n = 4;
    let cfg = Config::new(n, 1).unwrap();
    let mut world = World::new(
        WorldConfig::new(n).stop_policy(StopPolicy::AllCorrectHalted),
        UniformDelay::new(1, 10, 3),
    );
    for id in cfg.nodes() {
        let input = Value::from_bool(id.index() % 2 == 0);
        world.add_process(Box::new(BrachaProcess::new(
            cfg,
            id,
            input,
            LocalCoin::new(3, id),
            BrachaOptions::default(),
        )));
    }
    let report = world.run();
    assert_eq!(report.stop, async_bft::sim::StopReason::Completed);
    assert!(report.all_correct_decided());
    // Everyone decided within `extra_rounds` of the earliest decision.
    let min = report.output_rounds.values().min().copied().unwrap();
    let max = report.output_rounds.values().max().copied().unwrap();
    assert!(max - min <= 2, "stragglers must decide within two rounds");
}

/// With pruning on, a long multi-round run keeps the validator's tracked
/// rounds bounded (no unbounded state growth).
#[test]
fn validator_state_is_bounded_with_pruning() {
    // A fixed contrarian coin prevents early convergence so the run
    // spans many rounds; cap with max_rounds and inspect the node.
    let n = 4;
    let cfg = Config::new(n, 1).unwrap();
    let opts = BrachaOptions { max_rounds: 40, ..BrachaOptions::default() };
    let mut nodes: Vec<BrachaNode<FixedCoin>> = (0..n)
        .map(|i| {
            // Coins oppose the node parity: the cluster keeps flip-flopping.
            let v = Value::from_bool(i % 2 == 0);
            BrachaNode::new(cfg, NodeId::new(i), FixedCoin::new(v), opts)
        })
        .collect();

    // Synchronous pump.
    let mut queue: Vec<(NodeId, async_bft::consensus::Wire)> = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let input = Value::from_bool(i < 2);
        for t in node.start(input) {
            if let Transition::Broadcast(w) = t {
                queue.push((NodeId::new(i), w));
            }
        }
    }
    let mut steps = 0usize;
    while let Some((from, wire)) = queue.pop() {
        steps += 1;
        assert!(steps < 3_000_000, "pump did not quiesce");
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
    for node in &nodes {
        assert!(
            node.tracked_rounds() <= 4,
            "validator state leaked: {} rounds tracked at {}",
            node.tracked_rounds(),
            node.me()
        );
    }
}

/// A halted node frees its broadcast and validator state at the halt, not
/// when its host drops it (the ordering layer keeps an epoch's halted
/// instances until the slowest one is done) — and freeing it changes
/// nothing anyone else sees: same decisions, same number of messages.
#[test]
fn halted_node_holds_no_round_state() {
    use std::collections::VecDeque;
    let n = 7;
    let cfg = Config::new(n, 2).unwrap();
    let mut nodes: Vec<BrachaNode<CommonCoin>> = (0..n)
        .map(|i| BrachaNode::new(cfg, NodeId::new(i), CommonCoin::new(9, 0), Default::default()))
        .collect();
    let mut queue = VecDeque::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        for t in node.start(Value::from_bool(i < 3)) {
            if let Transition::Broadcast(w) = t {
                queue.push_back((NodeId::new(i), w));
            }
        }
    }
    let (mut broadcasts, mut live_peak) = (0usize, 0usize);
    while let Some((from, wire)) = queue.pop_front() {
        broadcasts += 1;
        for node in nodes.iter_mut() {
            let me = node.me();
            for t in node.on_message(from, &wire) {
                if let Transition::Broadcast(w) = t {
                    queue.push_back((me, w));
                }
            }
            if node.is_halted() {
                assert_eq!(node.tracked_rounds(), 0, "{me} halted with round state");
            } else {
                live_peak = live_peak.max(node.tracked_rounds());
            }
        }
    }
    assert!(live_peak >= 2, "the run must have had round state to free");
    let decided = nodes[0].decided().expect("decides");
    for node in &nodes {
        assert!(node.is_halted());
        assert_eq!(node.decided(), Some(decided));
        assert_eq!(node.decided_round(), nodes[0].decided_round());
    }
    // As before the halt-time free: decision in round 1 and two more rounds
    // of the halting gadget, each node's three steps a round RBC'd at one
    // Send, n Echoes and n Readys.
    assert_eq!(broadcasts, n * 3 * 3 * (2 * n + 1), "message total moved");
}

/// The common coin converges even when inputs and schedule conspire; and
/// once all correct halt, the queue drains without further protocol
/// activity (no zombie chatter).
#[test]
fn no_zombie_chatter_after_halt() {
    let n = 7;
    let cfg = Config::new(n, 2).unwrap();
    let mut world = World::new(
        WorldConfig::new(n).stop_policy(StopPolicy::QueueDrain),
        UniformDelay::new(1, 10, 9),
    );
    for id in cfg.nodes() {
        let input = Value::from_bool(id.index() < 3);
        world.add_process(Box::new(BrachaProcess::new(
            cfg,
            id,
            input,
            CommonCoin::new(9, 0),
            BrachaOptions::default(),
        )));
    }
    let report = world.run();
    // Queue drained means no infinite message loop once everyone halted.
    assert!(report.all_correct_decided());
    assert!(report.metrics.dropped_to_halted > 0 || report.metrics.delivered > 0);
}

/// Pumps a full ordering run synchronously and returns the peak
/// retained state observed at any node: (epochs, ABA instances, RBC
/// instances). Asserts completion, agreement and full wind-down.
fn pump_ordering(epochs: u64, depth: usize) -> (usize, usize, usize) {
    pump_ordering_with(epochs, depth, async_bft::rbc::RbcKind::Bracha).0
}

/// Like [`pump_ordering`], with a selectable RBC kind. Also returns the
/// ordered log, the peak bytes of buffered coded fragments at any node
/// (zero for Bracha), and the peak batch-body bytes any node held in
/// per-epoch ACS state. Asserts along the way that a node that has
/// appended every epoch holds no batch bytes, however many epochs still
/// linger for their halting gadgets.
fn pump_ordering_with(
    epochs: u64,
    depth: usize,
    rbc: async_bft::rbc::RbcKind,
) -> ((usize, usize, usize), async_bft::order::OrderLog, usize, usize) {
    let (peaks, nodes, frag, batch) = pump_ordering_nodes(epochs, depth, rbc, false);
    use async_bft::types::Process;
    (peaks, nodes[0].output().expect("asserted by the pump"), frag, batch)
}

/// [`pump_ordering_with`], handing back the wound-down nodes themselves
/// instead of their common log. Every node's mempool is preloaded with a
/// full batch per epoch — or, with `trickle`, starts empty and is handed
/// one payload each time the node appends an epoch: a load below a batch
/// an epoch, arriving as the run goes.
fn pump_ordering_nodes(
    epochs: u64,
    depth: usize,
    rbc: async_bft::rbc::RbcKind,
    trickle: bool,
) -> ((usize, usize, usize), Vec<async_bft::order::OrderProcess<CommonCoin>>, usize, usize) {
    use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
    use async_bft::types::{Effect, Process};
    use std::collections::VecDeque;

    let n = 4;
    let cfg = Config::new(n, 1).unwrap();
    let opts = OrderOptions { batch_max: 2, pipeline_depth: depth, epochs, rbc };
    let mut nodes: Vec<OrderProcess<CommonCoin>> = (0..n)
        .map(|i| {
            let preloaded = if trickle { 0 } else { 2 * epochs };
            let workload = (0..preloaded).map(|t| vec![i as u8, t as u8]).collect();
            OrderProcess::new(cfg, NodeId::new(i), opts, workload, |inst| CommonCoin::new(5, inst))
        })
        .collect();

    // Synchronous FIFO pump; broadcasts reach every node (sender
    // included), unicasts only their target.
    type Queue = VecDeque<(NodeId, NodeId, OrderMessage)>;
    fn send(queue: &mut Queue, n: usize, me: NodeId, effects: Vec<Effect<OrderMessage, OrderLog>>) {
        for e in effects {
            match e {
                Effect::Broadcast { msg } => {
                    for to in 0..n {
                        queue.push_back((me, NodeId::new(to), msg.clone()));
                    }
                }
                Effect::Send { to, msg } => queue.push_back((me, to, msg)),
                _ => {}
            }
        }
    }
    let mut queue = VecDeque::new();
    for node in nodes.iter_mut() {
        send(&mut queue, n, node.id(), node.on_start());
    }
    let (mut max_rbc, mut max_epochs, mut max_abas) = (0usize, 0usize, 0usize);
    let mut max_frag_bytes = 0usize;
    let mut max_batch_bytes = 0usize;
    let mut lingering_seen = false;
    let mut steps = 0usize;
    while let Some((from, to, msg)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 3_000_000, "pump did not quiesce");
        let node = &mut nodes[to.index()];
        let appended = node.committed_epochs();
        send(&mut queue, n, to, node.on_message(from, &msg));
        if trickle && node.committed_epochs() > appended {
            let tx = vec![to.index() as u8, appended as u8];
            node.submit(tx).expect("one payload an epoch never fills the mempool");
            send(&mut queue, n, to, node.poke());
        }
        assert!(node.in_flight() <= depth as u64);
        max_rbc = max_rbc.max(node.rbc_instance_count());
        max_epochs = max_epochs.max(node.live_epochs());
        max_abas = max_abas.max(node.retained_aba_count());
        max_frag_bytes = max_frag_bytes.max(node.rbc_fragment_bytes());
        max_batch_bytes = max_batch_bytes.max(node.retained_batch_bytes());
        if node.committed_epochs() == epochs {
            lingering_seen |= node.live_epochs() > 0;
            assert_eq!(
                node.retained_batch_bytes(),
                0,
                "appended epochs must hold no batch bytes ({} still linger)",
                node.live_epochs()
            );
        }
    }
    assert!(lingering_seen, "the run never exercised an appended-but-not-halted epoch");

    // The full run completed and all logs agree.
    let first = nodes[0].output().expect("node 0 must finish all epochs");
    assert!(!first.is_empty());
    for node in &nodes {
        assert_eq!(node.committed_epochs(), epochs);
        assert_eq!(node.output().as_ref(), Some(&first));
        assert_eq!(node.live_epochs(), 0, "wind-down must collect every epoch");
        assert_eq!(node.rbc_instance_count(), 0);
        assert_eq!(
            node.rbc_fragment_bytes(),
            0,
            "fragment buffers must be collected with their instances"
        );
    }
    ((max_epochs, max_abas, max_rbc), nodes, max_frag_bytes, max_batch_bytes)
}

/// The log retains committed slots as the batch bodies RBC delivered, not a
/// copy per payload: a logged payload costs its bytes and its 4-byte length
/// prefix, a slot (≤ `batch_max` payloads) one fixed header on top, and
/// `truncate_below` gives all of it back.
#[test]
fn retained_log_costs_a_length_prefix_per_tx_and_a_header_per_slot() {
    use async_bft::order::LogSlot;
    let (epochs, batch_max) = (6u64, 2usize); // the pump's batch_max
    let (_, mut nodes, _, _) =
        pump_ordering_nodes(epochs, 2, async_bft::rbc::RbcKind::Bracha, false);
    let node = &mut nodes[0];

    let entries = node.log().to_vec();
    assert_eq!(entries.len(), node.log().len());
    assert_eq!(entries.len(), 4 * 2 * epochs as usize, "every node's workload is ordered");
    let slots = node.log().slots().len();
    assert!(node.log().slots().iter().all(|slot| (1..=batch_max).contains(&slot.txs().len())));
    // Header: the slot record plus the body's 4-byte payload count.
    let header = std::mem::size_of::<LogSlot>() + 4;
    let payload_bytes: usize = entries.iter().map(|entry| entry.tx.len() + 4).sum();
    assert_eq!(node.retained_log_bytes(), payload_bytes + slots * header);

    // Truncating in the middle drops exactly the entries below the floor …
    let mid = epochs / 2;
    let below = entries.iter().filter(|entry| entry.epoch < mid).count();
    assert!(below > 0 && below < entries.len());
    let before = node.retained_log_bytes();
    assert_eq!(node.truncate_below(mid), below);
    assert_eq!(node.log().to_vec(), entries[below..]);
    assert!(node.retained_log_bytes() < before);
    assert_eq!(node.truncate_below(mid), 0, "idempotent");
    // … and truncating at the cursor leaves nothing retained.
    assert_eq!(node.truncate_below(epochs), entries.len() - below);
    assert_eq!((node.log().len(), node.retained_log_bytes()), (0, 0));
    assert_eq!(node.committed_epochs(), epochs, "the append cursor is untouched");
}

/// The ordering engine's tentpole memory property: over a long run
/// (many more epochs than the pipeline depth), the retained RBC and
/// agreement state stays bounded by the pipeline depth — per-epoch GC
/// actually collects, instead of accreting one ACS per epoch.
#[test]
fn ordering_state_is_bounded_by_pipeline_depth() {
    let (n, depth) = (4usize, 2usize);
    let short = pump_ordering(12, depth);
    let long = pump_ordering(24, depth);
    println!("peak retained state: 12 epochs -> {short:?}, 24 epochs -> {long:?}");

    // The leak detector: doubling the horizon must not move the peak.
    // (Identical schedules per epoch under the FIFO pump make this exact.)
    assert_eq!(short, long, "retained state grew with the epoch horizon: a per-epoch leak");

    // And the peak itself is a small multiple of the pipeline depth:
    // in-flight epochs (≤ depth) plus the constant halting-gadget
    // wind-down tail — nowhere near the 24-epoch horizon.
    let (max_epochs, max_abas, max_rbc) = long;
    let slack = 2 * depth + 2;
    assert!(max_epochs <= slack, "retained epochs {max_epochs} exceed 2·depth+2 = {slack}");
    assert!(max_abas <= n * slack, "retained ABA state {max_abas} exceeds n·(2·depth+2)");
    assert!(max_rbc <= n * slack, "live RBC instances {max_rbc} exceed n·(2·depth+2)");
}

/// The pipeline is as deep as the load asks for, so a load that trickles in
/// below a batch an epoch retains no more state at its peak than the
/// preloaded one that fills a depth-4 pipeline — in fact about what a
/// depth-1 pipeline would — and costs no more fixpoint runs an epoch.
#[test]
fn a_trickle_load_retains_no_more_than_a_preloaded_one() {
    use async_bft::rbc::RbcKind;
    let (n, depth, epochs) = (4u64, 4usize, 12u64);
    let (preloaded, full_nodes, _, full_batch) =
        pump_ordering_nodes(epochs, depth, RbcKind::Bracha, false);
    let (trickle, nodes, _, batch) = pump_ordering_nodes(epochs, depth, RbcKind::Bracha, true);
    println!("peak retained state at depth {depth}: preloaded {preloaded:?}, trickle {trickle:?}");
    assert!(trickle.0 <= preloaded.0, "live epochs: {trickle:?} vs {preloaded:?}");
    assert!(trickle.1 <= preloaded.1, "ABA instances: {trickle:?} vs {preloaded:?}");
    assert!(trickle.2 <= preloaded.2, "RBC instances: {trickle:?} vs {preloaded:?}");
    assert!(batch <= full_batch, "batch bytes: {batch} vs {full_batch}");

    for node in &nodes {
        // A payload handed over at the append of epoch `e` finds `e + 1`
        // open already and rides in `e + 2`: all but each node's last two
        // are ordered, and nobody filled a batch.
        assert_eq!(node.log().len() as u64, n * (epochs - 2));
        assert_eq!(node.opened().full, 0);
    }
    for node in nodes.iter().chain(&full_nodes) {
        let (runs, bound) = (node.fixpoint_runs(), (4 * n + 8) * epochs);
        assert!(runs <= bound, "{runs} fixpoint runs exceed (4n+8)·epochs = {bound}");
    }
}

/// Pumps a full replicated-state-machine run synchronously and returns
/// the peak retained state at any node: (ordered-log slots, live
/// epochs, ABA instances, RBC instances across batch + checkpoint
/// muxes). Asserts completion, byte-identical state hashes, and a
/// certified final checkpoint everywhere.
fn pump_smr(epochs: u64, interval: u64) -> (usize, usize, usize, usize) {
    use async_bft::order::OrderOptions;
    use async_bft::smr::{seeded_workload, SmrOptions, SmrProcess};
    use async_bft::types::{Effect, Process};
    use std::collections::VecDeque;

    let n = 4;
    let cfg = Config::new(n, 1).unwrap();
    let opts = SmrOptions {
        order: OrderOptions {
            batch_max: 2,
            pipeline_depth: 2,
            epochs,
            rbc: async_bft::rbc::RbcKind::Bracha,
        },
        checkpoint_interval: interval,
    };
    let mut nodes: Vec<SmrProcess<CommonCoin>> = (0..n)
        .map(|i| {
            let id = NodeId::new(i);
            let workload = seeded_workload(7, id, 2 * epochs as usize);
            SmrProcess::new(cfg, id, opts, workload, |inst| CommonCoin::new(5, inst))
        })
        .collect();

    let mut queue = VecDeque::new();
    for node in nodes.iter_mut() {
        let me = node.id();
        for e in node.on_start() {
            match e {
                Effect::Broadcast { msg } => {
                    for to in 0..n {
                        queue.push_back((me, NodeId::new(to), msg.clone()));
                    }
                }
                Effect::Send { to, msg } => queue.push_back((me, to, msg)),
                _ => {}
            }
        }
    }
    let (mut max_slots, mut max_epochs, mut max_abas, mut max_rbc) =
        (0usize, 0usize, 0usize, 0usize);
    let mut steps = 0usize;
    while let Some((from, to, msg)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 3_000_000, "pump did not quiesce");
        let node = &mut nodes[to.index()];
        let me = node.id();
        for e in node.on_message(from, &msg) {
            match e {
                Effect::Broadcast { msg } => {
                    for t in 0..n {
                        queue.push_back((me, NodeId::new(t), msg.clone()));
                    }
                }
                Effect::Send { to, msg } => queue.push_back((me, to, msg)),
                _ => {}
            }
        }
        if node.state().applied_epoch() == node.committed_epochs() {
            // Apply consumes the log epoch by epoch: once it has caught up,
            // no retained slot belongs to an applied epoch, certified or
            // not. What remains is the appended prefix of the unfinished
            // head epoch, at most one slot per proposer, applied when that
            // epoch completes.
            let (head, slots) = (node.committed_epochs(), node.log().slots());
            assert!(slots.len() <= n, "{me} retains {} slots", slots.len());
            assert!(slots.iter().all(|s| s.epoch() == head), "{me} retains applied log entries");
        }
        max_slots = max_slots.max(node.log().slots().len());
        max_epochs = max_epochs.max(node.live_epochs());
        max_abas = max_abas.max(node.retained_aba_count());
        max_rbc = max_rbc.max(node.rbc_instance_count());
    }

    // The run completed: every node applied every epoch, holds the
    // final-boundary certificate, and computes the same state hash.
    let hash = nodes[0].state().state_hash();
    for node in &nodes {
        assert_eq!(node.committed_epochs(), epochs);
        assert_eq!(node.state().applied_epoch(), epochs);
        assert_eq!(node.state().state_hash(), hash, "state diverged at {}", node.id());
        let (cert_epoch, cert_hash) = node.certificate().expect("final checkpoint certified");
        assert_eq!(cert_epoch, epochs);
        assert_eq!(cert_hash, hash);
        assert_eq!(node.live_epochs(), 0, "wind-down must collect every epoch");
    }
    (max_slots, max_epochs, max_abas, max_rbc)
}

/// The state-machine tentpole memory property: apply consumes the ordered
/// log and checkpoint certification collects snapshots and per-epoch
/// buffers, so over ≥ 4 checkpoint cycles the peak retained state is
/// *flat* as the horizon doubles — nothing accretes per epoch beyond the
/// window the checkpoint interval and pipeline depth define.
#[test]
fn checkpointed_smr_state_is_bounded_by_the_interval() {
    let interval = 2u64;
    let short = pump_smr(8, interval); // 4 checkpoint cycles
    let long = pump_smr(16, interval); // 8 checkpoint cycles
    println!("peak retained state: 8 epochs -> {short:?}, 16 epochs -> {long:?}");
    assert_eq!(short, long, "retained state grew with the epoch horizon: a per-epoch leak");

    // The peak itself is a small window, nowhere near the horizon: no
    // applied epoch's log between steps (each step applies every epoch it
    // completed), only the head epoch's appended slots, and the usual
    // pipeline-bounded protocol state.
    let (max_slots, max_epochs, max_abas, max_rbc) = long;
    let n = 4usize;
    assert!(max_slots <= n, "the log retained {max_slots} slots past apply");
    let slack = 2 * 2 + 2;
    assert!(max_epochs <= slack, "retained epochs {max_epochs} exceed 2·depth+2 = {slack}");
    assert!(max_abas <= n * slack, "retained ABA state {max_abas} exceeds n·(2·depth+2)");
    // RBC instances span the batch mux plus the checkpoint mux (one
    // instance per node per in-window boundary).
    assert!(max_rbc <= 2 * n * slack, "live RBC instances {max_rbc} exceed 2n·(2·depth+2)");
}

/// The coded-RBC memory property: an instance frees its fragment buffers
/// at delivery, and per-epoch GC (`RbcMux::retain`) drops the undelivered
/// ones with their instances — peak buffered fragment bytes stay flat as
/// the epoch horizon doubles, and the coded engine orders the exact log
/// the Bracha engine does.
#[test]
fn coded_ordering_collects_fragment_buffers() {
    use async_bft::rbc::RbcKind;
    let depth = 2usize;
    let (short_state, short_log, short_frag, short_batch) =
        pump_ordering_with(8, depth, RbcKind::Coded);
    let (long_state, _long_log, long_frag, long_batch) =
        pump_ordering_with(16, depth, RbcKind::Coded);
    assert!(short_frag > 0, "coded runs must actually buffer fragments");
    assert_eq!(
        short_frag, long_frag,
        "peak fragment bytes grew with the horizon: a per-epoch leak"
    );
    assert_eq!(
        short_state, long_state,
        "retained state grew with the epoch horizon: a per-epoch leak"
    );

    // Batch bodies move delivered → committed → log and are never held
    // twice: per-epoch state holds them only for epochs still in flight
    // (the pump asserts appended epochs hold none), so the peak is at
    // most one body per proposer per pipeline slot.
    let (n, batch) = (4usize, async_bft::order::encode_batch(&[vec![0u8; 2], vec![0u8; 2]]).len());
    assert!(short_batch > 0, "batches must pass through per-epoch state");
    assert_eq!(short_batch, long_batch, "peak batch bytes grew with the horizon");
    assert!(
        long_batch <= depth * n * batch,
        "peak batch bytes {long_batch} exceed depth·n·batch = {}",
        depth * n * batch
    );

    // Differential: same epochs, same workload, same coins — the coded
    // engine's ordered log is byte-identical to the Bracha engine's.
    let (_, bracha_log, bracha_frag, _) = pump_ordering_with(8, depth, RbcKind::Bracha);
    assert_eq!(bracha_frag, 0, "bracha broadcasts never buffer fragments");
    assert_eq!(short_log, bracha_log, "coded and bracha engines must order identical logs");
}

/// The ordering core's ACS fixpoint runs per *event that feeds a rule* — a
/// batch delivery, an agreement decision, an agreement halt: 3n an epoch,
/// plus start-up — not per message handled (an epoch is thousands of
/// messages at n=7). Pinned on a pipelined simulator run of bare
/// `OrderProcess`es.
#[test]
fn acs_fixpoint_runs_per_rule_event_not_per_message() {
    use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
    use async_bft::types::{Effect, Process};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Publishes the wrapped node's fixpoint count (the simulator owns the
    /// process, so the count leaves through a shared cell).
    struct Counted {
        inner: OrderProcess<CommonCoin>,
        fixpoint_runs: Arc<AtomicU64>,
    }
    impl Process for Counted {
        type Msg = OrderMessage;
        type Output = OrderLog;
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn on_start(&mut self) -> Vec<Effect<OrderMessage, OrderLog>> {
            self.inner.on_start()
        }
        fn on_message(
            &mut self,
            from: NodeId,
            msg: &OrderMessage,
        ) -> Vec<Effect<OrderMessage, OrderLog>> {
            let effects = self.inner.on_message(from, msg);
            self.fixpoint_runs.store(self.inner.fixpoint_runs(), Ordering::Relaxed);
            effects
        }
        fn output(&self) -> Option<OrderLog> {
            self.inner.output()
        }
        fn is_halted(&self) -> bool {
            self.inner.is_halted()
        }
    }

    let (n, epochs) = (7usize, 6u64);
    let cfg = Config::new(n, 2).unwrap();
    let opts = OrderOptions { batch_max: 2, pipeline_depth: 3, epochs, ..OrderOptions::default() };
    let mut world = World::new(
        WorldConfig::new(n).stop_policy(StopPolicy::AllCorrectHalted),
        UniformDelay::new(1, 10, 11),
    );
    let mut counts = Vec::new();
    for id in cfg.nodes() {
        let workload = (0..2 * epochs).map(|t| vec![id.index() as u8, t as u8]).collect();
        let inner = OrderProcess::new(cfg, id, opts, workload, |inst| CommonCoin::new(5, inst));
        let fixpoint_runs = Arc::new(AtomicU64::new(0));
        counts.push(Arc::clone(&fixpoint_runs));
        world.add_process(Box::new(Counted { inner, fixpoint_runs }));
    }
    let report = world.run();
    assert_eq!(report.stop, async_bft::sim::StopReason::Completed);
    assert!(report.all_correct_decided() && report.agreement_holds());

    // n deliveries, n decisions and n halts an epoch, the proposals, slack.
    let bound = (4 * n as u64 + 8) * epochs;
    let per_node_messages = report.metrics.delivered / n as u64;
    for (i, count) in counts.iter().enumerate() {
        let runs = count.load(Ordering::Relaxed);
        println!(
            "node {i}: {runs} fixpoint runs over {epochs} epochs, ~{per_node_messages} messages"
        );
        assert!(runs >= 3 * epochs, "node {i}: the fixpoint must still run ({runs})");
        assert!(
            runs <= bound,
            "node {i}: {runs} fixpoint runs for {epochs} epochs exceeds (4n+8)·epochs = {bound} \
             (~{per_node_messages} messages handled)"
        );
    }
}
